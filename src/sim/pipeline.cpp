#include "sim/pipeline.h"

#include "util/assert.h"

namespace dg::sim {

void RoundPipeline::append(RoundStage* stage, bool round_begin_before) {
  DG_EXPECTS(stage != nullptr);
  Slot slot;
  slot.stage = stage;
  slot.round_begin_before = round_begin_before;
  slots_.push_back(slot);
  regroup();
}

std::size_t RoundPipeline::find(const std::string& name) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].stage->name() == name) return i;
  }
  return npos;
}

void RoundPipeline::insert_after(const std::string& anchor,
                                 std::unique_ptr<RoundStage> stage) {
  DG_EXPECTS(stage != nullptr);
  std::size_t i = find(anchor);
  DG_EXPECTS(i != npos);
  // Chain behind splices already anchored here: consecutive spliced slots
  // after an anchor are exactly its splices (the next core stage breaks
  // the run), so skipping them preserves installation order.
  while (i + 1 < slots_.size() && slots_[i + 1].spliced) ++i;
  Slot slot;
  slot.stage = stage.get();
  slot.spliced = true;
  slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(i) + 1, slot);
  owned_.push_back(std::move(stage));
  regroup();
}

void RoundPipeline::regroup() {
  groups_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    const bool disjoint = slot.stage->vertex_disjoint_writes();
    if (disjoint && !slot.round_begin_before && !groups_.empty() &&
        groups_.back().disjoint) {
      groups_.back().last = i + 1;
    } else {
      groups_.push_back(Group{i, i + 1, disjoint});
    }
  }
}

}  // namespace dg::sim
