// Wire-size audit for the message plane.
//
// MessageWireSize feeds the network's bandwidth model, so its per-variant
// formulas are part of the experiment contract: a container conversion that
// silently changed a size would shift every bandwidth-limited result. These
// tests pin each variant's size — fixed header plus per-entry costs for the
// variable parts — including past the inline capacity of the small-buffer
// vectors, where a spilled container must still count every entry.
//
// The type-level properties the simulator relies on are pinned too: Message
// must stay nothrow-movable so the event queue can relocate queued deliveries
// without allocation.
#include "src/core/messages.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "tests/test_util.h"

namespace saturn {
namespace {

static_assert(std::is_nothrow_move_constructible_v<Message>,
              "Message must be nothrow-movable for the simulator's task buffers");
static_assert(std::is_nothrow_move_constructible_v<DcVec> &&
                  std::is_nothrow_move_constructible_v<DepVec>,
              "per-message containers must be nothrow-movable");

TEST(MessageWireSize, ClientRequestCountsVectorAndDeps) {
  ClientRequest req;
  req.op = ClientOpType::kUpdate;
  req.value_size = 100;
  EXPECT_EQ(MessageWireSize(req), 64u + 100u);

  req.client_vector.assign(7, 0);  // Cure at paper scale: one entry per DC
  EXPECT_EQ(MessageWireSize(req), 64u + 100u + 7u * 8u);

  req.explicit_deps.resize(3);  // COPS context
  EXPECT_EQ(MessageWireSize(req), 64u + 100u + 7u * 8u + 3u * 24u);
}

TEST(MessageWireSize, ClientResponseCountsDepVector) {
  ClientResponse resp;
  resp.value_size = 16;
  EXPECT_EQ(MessageWireSize(resp), 64u + 16u);
  resp.dep_vector.assign(5, 1);
  EXPECT_EQ(MessageWireSize(resp), 64u + 16u + 5u * 8u);
}

TEST(MessageWireSize, RemotePayloadCountsBothDependencyForms) {
  RemotePayload payload;
  payload.value_size = 512;
  EXPECT_EQ(MessageWireSize(payload), 104u + 512u);
  payload.dep_vector.assign(7, 0);
  payload.explicit_deps.resize(2);
  EXPECT_EQ(MessageWireSize(payload), 104u + 512u + 7u * 8u + 2u * 24u);
}

TEST(MessageWireSize, SpilledContainersStillCountEveryEntry) {
  // Past the inline bound (DcVec: 8, DepVec: 4) the containers spill to the
  // heap; the wire size must keep tracking the true element count.
  RemotePayload payload;
  payload.dep_vector.assign(12, 0);
  payload.explicit_deps.resize(9);
  ASSERT_TRUE(payload.dep_vector.spilled());
  ASSERT_TRUE(payload.explicit_deps.spilled());
  EXPECT_EQ(MessageWireSize(payload), 104u + 12u * 8u + 9u * 24u);

  // Copying a message with spilled containers preserves contents and size.
  RemotePayload copy = payload;
  EXPECT_EQ(copy.dep_vector, payload.dep_vector);
  EXPECT_EQ(MessageWireSize(copy), MessageWireSize(payload));
}

TEST(MessageWireSize, FixedSizeVariants) {
  EXPECT_EQ(MessageWireSize(BulkHeartbeat{}), 40u);
  EXPECT_EQ(MessageWireSize(BulkAck{}), 16u);
  EXPECT_EQ(MessageWireSize(LabelEnvelope{}), 48u);
  EXPECT_EQ(MessageWireSize(LinkAck{}), 16u);
  EXPECT_EQ(MessageWireSize(ChainForward{}), 64u);
  EXPECT_EQ(MessageWireSize(ChainAck{}), 16u);
  EXPECT_EQ(MessageWireSize(GstBroadcast{}), 24u);
}

TEST(MessageWireSize, LabelBatchCountsEncodedBytesAndPiggybackedAck) {
  LabelBatch batch;
  EXPECT_EQ(MessageWireSize(batch), 24u);

  batch.bytes.resize(100);
  EXPECT_EQ(MessageWireSize(batch), 24u + 100u);

  // The piggybacked cumulative ack costs what a standalone LinkAck's payload
  // would have: 8 bytes, only when present.
  batch.has_ack = true;
  batch.acked = 41;
  EXPECT_EQ(MessageWireSize(batch), 24u + 100u + 8u);
}

TEST(MessageWireSize, SpilledLabelBatchStillCountsEveryByte) {
  // Past BatchBytes's inline capacity the frame spills to the heap; the wire
  // size must keep tracking the true encoded length.
  LabelBatch batch;
  batch.bytes.assign(400, 0xab);
  ASSERT_TRUE(batch.bytes.spilled());
  EXPECT_EQ(MessageWireSize(batch), 24u + 400u);

  LabelBatch copy = batch;
  EXPECT_EQ(copy.bytes, batch.bytes);
  EXPECT_EQ(MessageWireSize(copy), MessageWireSize(batch));
}

TEST(MessageLinkClass, ClassifiesEveryVariant) {
  EXPECT_EQ(MessageLinkClass(ClientRequest{}), LinkClass::kClient);
  EXPECT_EQ(MessageLinkClass(ClientResponse{}), LinkClass::kClient);
  EXPECT_EQ(MessageLinkClass(RemotePayload{}), LinkClass::kBulk);
  EXPECT_EQ(MessageLinkClass(BulkHeartbeat{}), LinkClass::kBulk);
  EXPECT_EQ(MessageLinkClass(BulkAck{}), LinkClass::kBulk);
  EXPECT_EQ(MessageLinkClass(LabelEnvelope{}), LinkClass::kMetadataLabels);
  EXPECT_EQ(MessageLinkClass(LabelBatch{}), LinkClass::kMetadataLabels);
  EXPECT_EQ(MessageLinkClass(LinkAck{}), LinkClass::kMetadataAcks);
  EXPECT_EQ(MessageLinkClass(ChainForward{}), LinkClass::kChain);
  EXPECT_EQ(MessageLinkClass(ChainAck{}), LinkClass::kChain);
  EXPECT_EQ(MessageLinkClass(GstBroadcast{}), LinkClass::kControl);
  EXPECT_EQ(MessageLinkClass(StableVectorBroadcast{}), LinkClass::kControl);
  EXPECT_EQ(MessageLinkClass(ProbePing{}), LinkClass::kControl);
  EXPECT_EQ(MessageLinkClass(ProbePong{}), LinkClass::kControl);
}

TEST(MessageWireSize, StableVectorBroadcastScalesWithDcCount) {
  StableVectorBroadcast sv;
  EXPECT_EQ(MessageWireSize(sv), 16u);
  sv.stable.assign(7, 0);
  EXPECT_EQ(MessageWireSize(sv), 16u + 7u * 8u);
}

// Same-seed runs of the vector-metadata protocols must replay identically:
// the inline-vector and flat-container conversions on their hot paths are
// only admissible because they leave the executed event sequence untouched.
TEST(MessagePlane, VectorProtocolFingerprintsAreDeterministic) {
  for (Protocol protocol : {Protocol::kCure, Protocol::kCops}) {
    auto run = [protocol]() {
      ClusterConfig config = SmallClusterConfig(protocol);
      Cluster cluster(config, SmallReplicas(config), UniformClientHomes(3, 2),
                      SyntheticGenerators(DefaultWorkload()));
      ExperimentResult result = cluster.Run(Millis(200), Millis(500));
      return std::make_pair(cluster.sim().executed_events(), result.throughput_ops);
    };
    auto [events_a, throughput_a] = run();
    auto [events_b, throughput_b] = run();
    EXPECT_GT(throughput_a, 0.0) << ProtocolName(protocol);
    EXPECT_EQ(events_a, events_b) << ProtocolName(protocol);
    EXPECT_EQ(throughput_a, throughput_b) << ProtocolName(protocol);
  }
}

}  // namespace
}  // namespace saturn
