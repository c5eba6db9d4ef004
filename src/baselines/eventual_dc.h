// Eventually consistent datacenter: the paper's baseline.
//
// Remote updates are applied the moment their payload arrives; attaches never
// wait. No metadata is managed, so this baseline is the throughput upper
// bound and visibility-latency lower bound ("optimal") used throughout the
// paper's evaluation.
#ifndef SRC_BASELINES_EVENTUAL_DC_H_
#define SRC_BASELINES_EVENTUAL_DC_H_

#include "src/core/datacenter.h"

namespace saturn {

class EventualDc : public DatacenterBase {
 public:
  using DatacenterBase::DatacenterBase;

 protected:
  // Nothing is ever ordered on the visibility chain here, so an attach
  // completes after just the frontend cost.
  void HandleAttach(NodeId from, const ClientRequest& req) override { CompleteAttach(from, req); }

  void OnRemotePayload(const RemotePayload& payload) override {
    ApplyRemoteUpdate(payload, /*min_visible=*/0);
  }
};

}  // namespace saturn

#endif  // SRC_BASELINES_EVENTUAL_DC_H_
