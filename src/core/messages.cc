#include "src/core/messages.h"

namespace saturn {
namespace {

struct WireSizeVisitor {
  uint32_t operator()(const ClientRequest& m) const {
    return 64 + m.value_size + static_cast<uint32_t>(m.client_vector.size()) * 8 +
           static_cast<uint32_t>(m.explicit_deps.size()) * 24;
  }
  uint32_t operator()(const ClientResponse& m) const {
    return 64 + m.value_size + static_cast<uint32_t>(m.dep_vector.size()) * 8;
  }
  uint32_t operator()(const RemotePayload& m) const {
    return 104 + m.value_size + static_cast<uint32_t>(m.dep_vector.size()) * 8 +
           static_cast<uint32_t>(m.explicit_deps.size()) * 24;
  }
  uint32_t operator()(const BulkHeartbeat&) const { return 40; }
  uint32_t operator()(const BulkAck&) const { return 16; }
  uint32_t operator()(const LabelEnvelope&) const { return 48; }
  uint32_t operator()(const LinkAck&) const { return 16; }
  uint32_t operator()(const LabelBatch& m) const {
    // Frame header (seq, count, flags) plus the optional piggybacked ack and
    // the delta-encoded payload — the real compressed size, so the bandwidth
    // model and the wire-byte counters both see the compression win.
    return 24 + (m.has_ack ? 8 : 0) + static_cast<uint32_t>(m.bytes.size());
  }
  uint32_t operator()(const ChainForward&) const { return 64; }
  uint32_t operator()(const ChainAck&) const { return 16; }
  uint32_t operator()(const GstBroadcast&) const { return 24; }
  uint32_t operator()(const StableVectorBroadcast& m) const {
    return 16 + static_cast<uint32_t>(m.stable.size()) * 8;
  }
  uint32_t operator()(const ProbePing&) const { return 24; }
  uint32_t operator()(const ProbePong&) const { return 24; }
};

struct LinkClassVisitor {
  LinkClass operator()(const ClientRequest&) const { return LinkClass::kClient; }
  LinkClass operator()(const ClientResponse&) const { return LinkClass::kClient; }
  LinkClass operator()(const RemotePayload&) const { return LinkClass::kBulk; }
  LinkClass operator()(const BulkHeartbeat&) const { return LinkClass::kBulk; }
  LinkClass operator()(const BulkAck&) const { return LinkClass::kBulk; }
  LinkClass operator()(const LabelEnvelope&) const { return LinkClass::kMetadataLabels; }
  LinkClass operator()(const LabelBatch&) const { return LinkClass::kMetadataLabels; }
  LinkClass operator()(const LinkAck&) const { return LinkClass::kMetadataAcks; }
  LinkClass operator()(const ChainForward&) const { return LinkClass::kChain; }
  LinkClass operator()(const ChainAck&) const { return LinkClass::kChain; }
  LinkClass operator()(const GstBroadcast&) const { return LinkClass::kControl; }
  LinkClass operator()(const StableVectorBroadcast&) const { return LinkClass::kControl; }
  LinkClass operator()(const ProbePing&) const { return LinkClass::kControl; }
  LinkClass operator()(const ProbePong&) const { return LinkClass::kControl; }
};

}  // namespace

// LabelBatch was sized to stay within the footprint of the largest existing
// alternative's ballpark; if it ever dominates Message, the network delivery
// closure (network.cc) is the real gate — this bound just localizes the error.
static_assert(sizeof(LabelBatch) <= 344, "LabelBatch grew; shrink BatchBytes");

uint32_t MessageWireSize(const Message& msg) { return std::visit(WireSizeVisitor{}, msg); }

const char* LinkClassName(LinkClass c) {
  switch (c) {
    case LinkClass::kClient:
      return "client";
    case LinkClass::kBulk:
      return "bulk";
    case LinkClass::kMetadataLabels:
      return "metadata_labels";
    case LinkClass::kMetadataAcks:
      return "metadata_acks";
    case LinkClass::kChain:
      return "chain";
    case LinkClass::kControl:
      return "control";
  }
  return "?";
}

LinkClass MessageLinkClass(const Message& msg) {
  return std::visit(LinkClassVisitor{}, msg);
}

}  // namespace saturn
