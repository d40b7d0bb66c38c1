#include "sim/splice.h"

#include <cmath>
#include <utility>

#include "obs/registry.h"
#include "obs/trace_sink.h"
#include "scn/spec_error.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/specparse.h"

namespace dg::sim {

namespace {

/// Trace track for spliced-stage instants (see obs/trace_sink.h pids).
constexpr int kStagesPid = 5;

std::string spec_stage_name(const SpliceSpec& spec) {
  switch (spec.kind) {
    case SpliceSpec::Kind::kNoop: return "noop";
    case SpliceSpec::Kind::kDedup: return "dedup";
    case SpliceSpec::Kind::kTap:
      return std::string("tap:") + slab_name(spec.tap_slab);
  }
  return "?";
}

/// Content key of one decoded packet: every field that distinguishes two
/// transmissions a dedup cache should treat as different, splitmix-mixed
/// and forced nonzero so the empty ring slot (0) never matches.
std::uint64_t packet_key(const Packet& p) {
  std::uint64_t k = splitmix64(p.sender);
  if (p.is_seed()) {
    const SeedPayload& s = p.seed();
    k = splitmix64(k ^ s.owner) ^ splitmix64(s.seed_value);
  } else {
    const DataPayload& d = p.data();
    k = splitmix64(k ^ d.id.origin) ^
        splitmix64((std::uint64_t{d.id.seq} << 1) ^ d.content);
  }
  return k == 0 ? 1 : k;
}

/// The observably-free seam probe: a stage that declares nothing and does
/// nothing, so a spliced run must stay byte-identical to an unspliced one
/// (CI's campaign gate diffs exactly that).  Writing nothing is trivially
/// vertex-disjoint, so it joins its anchor's block pass instead of
/// splitting it.
class NoopStage final : public RoundStage {
 public:
  std::string name() const override { return "noop"; }
  SlabSet reads() const override { return 0; }
  SlabSet writes() const override { return 0; }
  bool vertex_disjoint_writes() const override { return true; }
  void run_block(RoundState&, graph::Vertex, graph::Vertex) override {}
};

/// Duplicate-suppression cache: per receiver, a ring of the last `window`
/// decoded packet keys.  A redundant delivery sets the receiver's bit in
/// the delivery mask, which the receive stage honors by handing the
/// process a null indicator instead of the packet.  Ring state depends
/// only on the receiver's own decode sequence (frozen heard words), so
/// block-parallel execution is deterministic at any thread count.  Only
/// count==1 deliveries touch a ring, and those all lie in frontier words,
/// so the scan visits only those (RoundState's frontier-read contract).
class DedupStage final : public RoundStage {
 public:
  DedupStage(std::size_t window, std::size_t vertex_count)
      : window_(window),
        keys_(vertex_count * window, 0),
        pos_(vertex_count, 0) {}

  std::string name() const override { return "dedup"; }
  SlabSet reads() const override {
    return slab_bit(Slab::kTransmitBitmap) | slab_bit(Slab::kPacketSlab) |
           slab_bit(Slab::kHeardWords) | slab_bit(Slab::kCrashedBitmap) |
           slab_bit(Slab::kActivityMask);
  }
  SlabSet writes() const override {
    return slab_bit(Slab::kDeliveryMask);
  }
  bool vertex_disjoint_writes() const override { return true; }

  void prologue(RoundState& rs) override {
    rs.delivery_mask->clear();
    *rs.deliver_masked = true;
  }
  void run_block(RoundState& rs, graph::Vertex begin,
                 graph::Vertex end) override {
    rs.activity->for_each_nonzero_run(
        begin, end, [&](std::size_t lo, std::size_t hi) {
          scan(rs, static_cast<graph::Vertex>(lo),
               static_cast<graph::Vertex>(hi));
        });
  }
  void after_phase(RoundState& rs) override {
    if (rs.registry != nullptr) {
      rs.registry->counter("stage.dedup.suppressed", obs::Domain::kLogical) +=
          rs.delivery_mask->count();
    }
  }

 private:
  void scan(RoundState& rs, graph::Vertex begin, graph::Vertex end) {
    for (graph::Vertex u = begin; u < end; ++u) {
      if (rs.transmitting->test(u)) continue;
      if (rs.faults && rs.crashed->test(u)) continue;
      const std::uint64_t h = (*rs.heard)[u];
      if (static_cast<std::uint32_t>(h) != 1) continue;
      const std::uint64_t key = packet_key((*rs.packets)[h >> 32]);
      std::uint64_t* ring = keys_.data() + u * window_;
      bool hit = false;
      for (std::size_t i = 0; i < window_; ++i) {
        if (ring[i] == key) {
          hit = true;
          break;
        }
      }
      if (hit) {
        rs.delivery_mask->set(u);
      } else {
        ring[pos_[u]] = key;
        pos_[u] = (pos_[u] + 1) % static_cast<std::uint32_t>(window_);
      }
    }
  }

  std::size_t window_;
  std::vector<std::uint64_t> keys_;  ///< per-vertex rings, window_ apiece
  std::vector<std::uint32_t> pos_;   ///< per-vertex ring cursor
};

/// Read-only probe of one slab: a logical population counter per round
/// plus per-vertex trace instants for an explicit vertex list.  Serial by
/// declaration (it writes no slab, but the trace sink is not thread-safe).
/// Heard words are read through the frontier: outside frontier words they
/// are stale and read as 0.
class TraceTapStage final : public RoundStage {
 public:
  TraceTapStage(Slab slab, std::vector<std::uint32_t> vertices)
      : slab_(slab),
        vertices_(std::move(vertices)),
        name_(std::string("tap:") + slab_name(slab)),
        counter_(std::string("stage.tap.") + slab_name(slab)) {}

  std::string name() const override { return name_; }
  SlabSet reads() const override {
    // Heard words are read through the frontier (see population()).
    return slab_ == Slab::kHeardWords
               ? slab_bit(slab_) | slab_bit(Slab::kActivityMask)
               : slab_bit(slab_);
  }
  SlabSet writes() const override { return 0; }

  void run_block(RoundState& rs, graph::Vertex, graph::Vertex) override {
    if (rs.registry != nullptr) {
      rs.registry->counter(counter_, obs::Domain::kLogical) += population(rs);
    }
    if (rs.trace == nullptr) return;
    for (const std::uint32_t v : vertices_) {
      if (v >= rs.vertex_count) continue;
      rs.trace->instant(rs.round, v, name_, kStagesPid,
                        "{\"value\": " + std::to_string(value_at(rs, v)) +
                            "}");
    }
  }

 private:
  std::uint64_t population(const RoundState& rs) const {
    switch (slab_) {
      case Slab::kTransmitBitmap: return rs.transmitting->count();
      case Slab::kCrashedBitmap: return rs.crashed->count();
      case Slab::kHeardWords: {
        std::uint64_t n = 0;
        rs.activity->for_each_nonzero_run(
            0, rs.vertex_count, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t u = lo; u < hi; ++u) n += ((*rs.heard)[u] != 0);
            });
        return n;
      }
      default: return 0;
    }
  }

  std::uint64_t value_at(const RoundState& rs, std::uint32_t v) const {
    switch (slab_) {
      case Slab::kTransmitBitmap: return rs.transmitting->test(v);
      case Slab::kCrashedBitmap: return rs.crashed->test(v);
      case Slab::kHeardWords:
        return rs.activity->words()[v / 64] != 0 ? (*rs.heard)[v] : 0;
      default: return 0;
    }
  }

  Slab slab_;
  std::vector<std::uint32_t> vertices_;
  std::string name_;
  std::string counter_;
};

}  // namespace

std::string valid_splice_kinds() {
  return "noop, dedup[:window[:slab]], tap:slab[:v1,v2,...]";
}

bool parse_splice_spec(const std::string& text, SpliceSpec& out,
                       std::string& error) {
  out = SpliceSpec{};
  out.text = text;
  const std::vector<std::string> parts = spec::split(text, ':');
  const std::string kind = parts.empty() ? std::string() : parts[0];
  if (kind == "noop") {
    out.kind = SpliceSpec::Kind::kNoop;
    if (parts.size() > 1) {
      error = "stage 'noop' takes no arguments";
      return false;
    }
    return true;
  }
  if (kind == "dedup") {
    out.kind = SpliceSpec::Kind::kDedup;
    if (parts.size() > 3) {
      error = "stage 'dedup': too many arguments (dedup[:window[:slab]])";
      return false;
    }
    if (parts.size() >= 2) {
      double w = 0;
      if (!spec::parse_num(parts[1], w) || w < 1 || w != std::floor(w) ||
          w > 4096) {
        error = "stage 'dedup': bad window '" + parts[1] +
                "' (positive integer <= 4096 required)";
        return false;
      }
      out.window = static_cast<std::size_t>(w);
    }
    if (parts.size() == 3 && !parse_slab(parts[2], out.mask_slab)) {
      error = scn::unknown_spec("slab", parts[2], valid_slab_names());
      return false;
    }
    return true;
  }
  if (kind == "tap") {
    out.kind = SpliceSpec::Kind::kTap;
    if (parts.size() < 2) {
      error = "stage 'tap': missing slab (tap:slab[:v1,v2,...])";
      return false;
    }
    if (parts.size() > 3) {
      error = "stage 'tap': too many arguments (tap:slab[:v1,v2,...])";
      return false;
    }
    if (!parse_slab(parts[1], out.tap_slab)) {
      error = scn::unknown_spec("slab", parts[1], valid_slab_names());
      return false;
    }
    if (out.tap_slab != Slab::kTransmitBitmap &&
        out.tap_slab != Slab::kHeardWords &&
        out.tap_slab != Slab::kCrashedBitmap) {
      error = "stage 'tap': slab '" + parts[1] +
              "' is not tappable (valid: transmit_bitmap, heard_words, "
              "crashed_bitmap)";
      return false;
    }
    if (parts.size() == 3) {
      const std::vector<std::string> toks = spec::split(parts[2], ',');
      if (toks.empty()) {
        error = "stage 'tap': empty vertex list";
        return false;
      }
      for (const std::string& tok : toks) {
        double v = 0;
        if (!spec::parse_num(tok, v) || v < 0 || v != std::floor(v)) {
          error = "stage 'tap': bad vertex '" + tok + "'";
          return false;
        }
        out.vertices.push_back(static_cast<std::uint32_t>(v));
      }
    }
    return true;
  }
  error = scn::unknown_spec("stage", kind, valid_splice_kinds());
  return false;
}

SlabSet splice_reads(const SpliceSpec& spec) {
  switch (spec.kind) {
    case SpliceSpec::Kind::kNoop: return 0;
    case SpliceSpec::Kind::kDedup:
      return slab_bit(Slab::kTransmitBitmap) | slab_bit(Slab::kPacketSlab) |
             slab_bit(Slab::kHeardWords) | slab_bit(Slab::kCrashedBitmap) |
             slab_bit(Slab::kActivityMask);
    case SpliceSpec::Kind::kTap:
      return spec.tap_slab == Slab::kHeardWords
                 ? slab_bit(Slab::kHeardWords) | slab_bit(Slab::kActivityMask)
                 : slab_bit(spec.tap_slab);
  }
  return 0;
}

SlabSet splice_writes(const SpliceSpec& spec) {
  switch (spec.kind) {
    case SpliceSpec::Kind::kNoop: return 0;
    case SpliceSpec::Kind::kDedup: return slab_bit(spec.mask_slab);
    case SpliceSpec::Kind::kTap: return 0;
  }
  return 0;
}

std::string validate_splice_specs(const std::vector<SpliceSpec>& specs) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SlabSet w = splice_writes(specs[i]);
    for (std::size_t s = 0; s < kSlabCount; ++s) {
      const auto slab = static_cast<Slab>(s);
      if (!slab_set_contains(w, slab)) continue;
      const char* owner = slab_owner(slab);
      if (*owner != '\0') {
        return "stage '" + spec_stage_name(specs[i]) + "' writes slab '" +
               slab_name(slab) + "' owned by core stage '" + owner +
               "' (spliced stages may only write: delivery_mask)";
      }
    }
    for (std::size_t j = 0; j < i; ++j) {
      const SlabSet overlap = w & splice_writes(specs[j]);
      if (overlap != 0) {
        return "stages '" + spec_stage_name(specs[j]) + "' and '" +
               spec_stage_name(specs[i]) + "' both write slab(s): " +
               slab_set_names(overlap);
      }
    }
  }
  return "";
}

std::string splice_anchor(const SpliceSpec& spec) {
  if (spec.kind == SpliceSpec::Kind::kTap) return slab_owner(spec.tap_slab);
  return "compute";
}

std::unique_ptr<RoundStage> build_splice_stage(const SpliceSpec& spec,
                                               std::size_t vertex_count) {
  switch (spec.kind) {
    case SpliceSpec::Kind::kNoop: return std::make_unique<NoopStage>();
    case SpliceSpec::Kind::kDedup:
      DG_EXPECTS(spec.mask_slab == Slab::kDeliveryMask);
      return std::make_unique<DedupStage>(spec.window, vertex_count);
    case SpliceSpec::Kind::kTap:
      return std::make_unique<TraceTapStage>(spec.tap_slab, spec.vertices);
  }
  return nullptr;
}

}  // namespace dg::sim
