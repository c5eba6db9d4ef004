// A datacenter's store: a fixed set of partitions (storage servers), with
// keys assigned by hash. Each partition is fronted by a gear that generates
// labels and by a server queue that models its service capacity.
#ifndef SRC_KVSTORE_PARTITIONED_STORE_H_
#define SRC_KVSTORE_PARTITIONED_STORE_H_

#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/kvstore/versioned_store.h"

namespace saturn {

class PartitionedStore {
 public:
  explicit PartitionedStore(uint32_t num_partitions) : partitions_(num_partitions) {
    SAT_CHECK(num_partitions > 0);
  }

  // Stable key -> partition assignment (Fibonacci hashing).
  uint32_t PartitionOf(KeyId key) const {
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return static_cast<uint32_t>((h >> 32) % partitions_.size());
  }

  VersionedStore& partition(uint32_t index) {
    SAT_CHECK(index < partitions_.size());
    return partitions_[index];
  }

  VersionedStore& PartitionFor(KeyId key) { return partitions_[PartitionOf(key)]; }

  uint32_t num_partitions() const { return static_cast<uint32_t>(partitions_.size()); }

  // Pre-sizes every partition for `expected_total` distinct keys across the
  // store. The hash split is near-even; 5/4 slack covers its variance.
  void ReserveKeys(size_t expected_total) {
    size_t per_partition = (expected_total / partitions_.size() + 1) * 5 / 4;
    for (auto& p : partitions_) {
      p.Reserve(per_partition);
    }
  }

  size_t TotalKeys() const {
    size_t total = 0;
    for (const auto& p : partitions_) {
      total += p.size();
    }
    return total;
  }

 private:
  std::vector<VersionedStore> partitions_;
};

// Models a storage server's CPU: jobs are served FIFO, one at a time. Used to
// turn per-operation costs (CostModel) into queueing delay and throughput.
class ServerQueue {
 public:
  // Submits a job of duration `cost` at time `now`; returns its completion time.
  SimTime Submit(SimTime now, SimTime cost) {
    SimTime start = busy_until_ > now ? busy_until_ : now;
    busy_until_ = start + cost;
    busy_time_ += cost;
    ++jobs_;
    return busy_until_;
  }

  SimTime busy_until() const { return busy_until_; }
  SimTime busy_time() const { return busy_time_; }
  uint64_t jobs() const { return jobs_; }

  double Utilization(SimTime elapsed) const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(busy_time_) / static_cast<double>(elapsed);
  }

 private:
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t jobs_ = 0;
};

}  // namespace saturn

#endif  // SRC_KVSTORE_PARTITIONED_STORE_H_
