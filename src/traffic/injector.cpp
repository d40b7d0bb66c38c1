#include "traffic/injector.h"

#include <algorithm>

#include "util/assert.h"

namespace dg::traffic {

/// Admission facade handed to sources: routes offers into the owning
/// injector's queues and answers state queries.  `round_` carries the
/// round currently being stepped; `busy_` is the service's busy slab.
class Injector::Port final : public Admission {
 public:
  Port(Injector& owner, sim::Round round, std::span<const std::uint8_t> busy)
      : owner_(&owner), round_(round), busy_(busy) {}

  std::size_t nodes() const override { return owner_->queues_.size(); }
  bool service_busy(graph::Vertex v) const override {
    DG_EXPECTS(v < busy_.size());
    return busy_[v] != 0;
  }
  std::size_t queue_depth(graph::Vertex v) const override {
    return owner_->queues_[v].size();
  }
  void offer(graph::Vertex v) override {
    owner_->enqueue(v, 0, /*auto_content=*/true, round_);
  }
  void offer(graph::Vertex v, std::uint64_t content) override {
    owner_->enqueue(v, content, /*auto_content=*/false, round_);
  }

 private:
  Injector* owner_;
  sim::Round round_;
  std::span<const std::uint8_t> busy_;
};

Injector::Injector(std::size_t nodes, LbPort& port)
    : port_(&port),
      queues_(nodes),
      arrival_counter_(nodes, 0),
      down_(nodes, false),
      inflight_(nodes, 0) {
  DG_EXPECTS(port.busy_flags().size() == nodes);
}

void Injector::add_source(std::unique_ptr<TrafficSource> source) {
  DG_EXPECTS(source != nullptr);
  sources_.push_back(std::move(source));
}

void Injector::enqueue(graph::Vertex v, std::uint64_t content,
                       bool auto_content, sim::Round round) {
  DG_EXPECTS(v < static_cast<graph::Vertex>(queues_.size()));
  ++stats_.offered;
  if (capacity_ != 0 && queues_[v].size() >= capacity_) {
    ++stats_.dropped;
    return;
  }
  MessageRecord rec;
  rec.vertex = v;
  // Auto contents continue the keep_busy convention: the k-th arrival at v
  // carries content k (1-based), so Saturate reproduces the legacy
  // environment's payloads exactly.
  rec.content = auto_content ? ++arrival_counter_[v] : content;
  rec.enqueue_round = round;
  if (queues_[v].empty()) active_.push_back(v);
  queues_[v].push_back(records_.size());
  records_.push_back(rec);
  ++stats_.enqueued;
}

void Injector::step(sim::Round round) {
  // Crash re-queues can leave messages waiting even with no sources
  // attached, so the fast exit for non-traffic runs needs both empty.
  if (sources_.empty() && active_.empty()) return;

  // 1. Arrival step: sources offer, in attach order (keep_busy call order).
  const std::span<const std::uint8_t> busy = port_->busy_flags();
  Port port(*this, round, busy);
  for (const auto& source : sources_) source->step(port, round);

  // 2. Admission step: each idle node with a non-empty queue takes its
  //    head.  The service contract allows one outstanding message, so at
  //    most one admission per node per round.  Only the active list is
  //    scanned; stats are order-independent sums, so the transition-order
  //    walk is equivalent to a full vertex sweep.
  // 3. Depth sample, fused: what stays queued over this round.
  ++stats_.depth_samples;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const graph::Vertex v = active_[i];
    if (!down_[v] && busy[v] == 0) {
      const std::size_t index = queues_[v].front();
      queues_[v].pop_front();
      MessageRecord& rec = records_[index];
      rec.id = port_->admit(v, rec.content);
      rec.admit_round = round;
      index_of_.emplace(rec.id, index);
      inflight_[v] = index + 1;
      ++stats_.admitted;
      if (rec.requeued) ++stats_.readmitted;
      stats_.wait_sum +=
          static_cast<std::uint64_t>(round - rec.enqueue_round);
    }
    const std::size_t depth = queues_[v].size();
    if (depth == 0) continue;  // drained: drop from the active list
    active_[keep++] = v;
    stats_.depth_sum += depth;
    stats_.depth_max = std::max<std::uint64_t>(stats_.depth_max, depth);
  }
  active_.resize(keep);
}

void Injector::on_ack(const sim::MessageId& m, sim::Round round) {
  if (index_of_.empty()) return;  // keep non-traffic runs off the hash path
  const auto it = index_of_.find(m);
  if (it == index_of_.end()) return;  // direct post_bcast, not ours
  MessageRecord& rec = records_[it->second];
  if (rec.ack_round != 0) return;
  rec.ack_round = round;
  if (inflight_[rec.vertex] == it->second + 1) inflight_[rec.vertex] = 0;
  ++stats_.acked;
  stats_.ack_latency_sum +=
      static_cast<std::uint64_t>(round - rec.enqueue_round);
}

void Injector::on_recv(const sim::MessageId& m, sim::Round round) {
  if (index_of_.empty()) return;  // keep non-traffic runs off the hash path
  const auto it = index_of_.find(m);
  if (it == index_of_.end()) return;
  MessageRecord& rec = records_[it->second];
  if (rec.first_recv_round != 0) return;
  rec.first_recv_round = round;
  ++stats_.first_recvs;
  stats_.recv_latency_sum +=
      static_cast<std::uint64_t>(round - rec.enqueue_round);
}

void Injector::on_abort(const sim::MessageId& m, sim::Round round) {
  if (index_of_.empty()) return;
  const auto it = index_of_.find(m);
  if (it == index_of_.end()) return;
  MessageRecord& rec = records_[it->second];
  if (rec.abort_round != 0) return;
  rec.abort_round = round;
  if (inflight_[rec.vertex] == it->second + 1) inflight_[rec.vertex] = 0;
  ++stats_.aborted;
}

void Injector::on_crash(graph::Vertex v, sim::Round round) {
  DG_EXPECTS(v < static_cast<graph::Vertex>(queues_.size()));
  down_[v] = true;
  const std::size_t slot = inflight_[v];
  if (slot == 0) return;  // nothing of ours was in flight
  inflight_[v] = 0;
  const std::size_t index = slot - 1;
  MessageRecord& rec = records_[index];
  // The crash aborts the service-side broadcast; account it here (the
  // wrapper routes the crash-abort to us through this call, not on_abort)
  // and put the message back at the head of the queue for re-admission
  // after recovery.  Its next admission assigns a fresh MessageId.
  if (rec.abort_round == 0) {
    rec.abort_round = round;
    ++stats_.aborted;
  }
  if (queues_[v].empty()) active_.push_back(v);
  queues_[v].push_front(index);
  rec.requeued = true;
  ++stats_.crash_requeues;
}

void Injector::on_recover(graph::Vertex v, sim::Round round) {
  (void)round;
  DG_EXPECTS(v < static_cast<graph::Vertex>(queues_.size()));
  down_[v] = false;
}

}  // namespace dg::traffic
