#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <unordered_set>

#include "phys/dual_graph_channel.h"
#include "util/assert.h"
#include "util/rng.h"

namespace dg::sim {

namespace {

/// silent_until_ value that parks a vertex for the rest of the execution
/// (crashed vertices, until a recovery sets their awake bit), and the
/// word_wake_ of a word without a parked vertex.
constexpr Round kParkedForever = std::numeric_limits<Round>::max();

/// Saturating promise horizon: parked through round t + j.
constexpr Round promise_until(Round t, std::int64_t j) {
  return j >= kParkedForever - t ? kParkedForever : t + j;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::vector<ProcessId> assign_ids(std::size_t n, std::uint64_t seed) {
  std::vector<ProcessId> ids;
  ids.reserve(n);
  std::unordered_set<ProcessId> used;
  std::uint64_t counter = 0;
  while (ids.size() < n) {
    const ProcessId candidate = splitmix64(seed ^ splitmix64(counter++));
    if (candidate != 0 && used.insert(candidate).second) {
      ids.push_back(candidate);
    }
  }
  return ids;
}

// ---------------------------------------------------------------------------
// The core stage set.  Each stage is a thin adapter from the RoundStage
// contract onto the engine's slabs and fan-out lists: run_block() is the
// one body (per vertex block, parallel or inline), and every observer
// event is fanned out by replay() in ascending vertex order (see
// sim/stage.h).
// ---------------------------------------------------------------------------

struct EngineStages {
  /// "fault": the serial fault checkpoint.  Only active with a plan
  /// installed, so fault-free rounds skip the bracket entirely.  Runs
  /// before the on_round_begin fan-out (the transmit slot carries that
  /// seam).
  class FaultStage final : public RoundStage {
   public:
    explicit FaultStage(Engine& e) : e_(e) {}
    std::string name() const override { return "fault"; }
    SlabSet reads() const override { return 0; }
    SlabSet writes() const override {
      return slab_bit(Slab::kCrashedBitmap);
    }
    bool active() const override { return e_.fault_plan_ != nullptr; }
    void run_block(RoundState& rs, graph::Vertex, graph::Vertex) override {
      e_.apply_faults(rs.round);
    }

   private:
    Engine& e_;
  };

  /// "transmit": per-vertex transmit decisions into the packet slab and
  /// transmit bitmap.  Blocks own whole bitmap words (block sizes are
  /// multiples of 64), so the set() read-modify-writes never touch
  /// another block's word.  Promises that ended last round rejoin the
  /// awake mask first (only in words whose word_wake_ has passed); then
  /// only awake vertices are visited, and one whose promise just expired
  /// gets one batched silent_steps() catch-up before its step.  Crashed
  /// vertices are never awake, so no explicit crashed_ test.
  class TransmitStage final : public RoundStage {
   public:
    explicit TransmitStage(Engine& e) : e_(e) {}
    std::string name() const override { return "transmit"; }
    SlabSet reads() const override {
      return slab_bit(Slab::kCrashedBitmap) | slab_bit(Slab::kRngStreams);
    }
    SlabSet writes() const override {
      return slab_bit(Slab::kTransmitBitmap) | slab_bit(Slab::kPacketSlab) |
             slab_bit(Slab::kRngStreams);
    }
    bool vertex_disjoint_writes() const override { return true; }
    void prologue(RoundState&) override { e_.transmitting_.clear(); }
    void run_block(RoundState& rs, graph::Vertex begin,
                   graph::Vertex end) override {
      const Round t = rs.round;
      const auto awake = e_.awake_.words();
      const std::size_t we = (static_cast<std::size_t>(end) + 63) / 64;
      for (std::size_t w = begin / 64; w < we; ++w) {
        if (e_.word_wake_[w] < t) readmit(w, t);
        for (std::uint64_t bits = awake[w]; bits != 0; bits &= bits - 1) {
          const auto v =
              static_cast<graph::Vertex>(w * 64 + std::countr_zero(bits));
          if (e_.last_stepped_[v] < t - 1) {
            e_.processes_[v]->silent_steps(t - 1 - e_.last_stepped_[v]);
          }
          e_.last_stepped_[v] = t;
          RoundContext ctx(t, e_.rngs_[v]);
          auto packet = e_.processes_[v]->transmit(ctx);
          if (!packet.has_value()) continue;
          // The wire carries the true sender id; processes cannot spoof.
          DG_ASSERT(packet->sender == e_.processes_[v]->id());
          e_.outgoing_slab_[v] = *std::move(packet);
          e_.transmitting_.set(v);
        }
      }
    }
    void replay(RoundState& rs) override {
      if (e_.obs_transmit_.empty()) return;
      const Round t = rs.round;
      e_.transmitting_.for_each_set([&](std::size_t v) {
        for (Observer* obs : e_.obs_transmit_) {
          obs->on_transmit(t, static_cast<graph::Vertex>(v),
                           e_.outgoing_slab_[v]);
        }
      });
    }

   private:
    /// Re-admission scan of word w at round t: every parked vertex whose
    /// promise ended before t rejoins the awake mask, and word_wake_[w]
    /// becomes the exact minimum over the rest.
    void readmit(std::size_t w, Round t) {
      const auto awake = e_.awake_.words();
      Round next = kParkedForever;
      for (std::uint64_t bits = e_.awake_.word_mask(w) & ~awake[w];
           bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const Round until =
            e_.silent_until_[w * 64 + static_cast<std::size_t>(b)];
        if (until < t) {
          awake[w] |= std::uint64_t{1} << b;
        } else {
          next = std::min(next, until);
        }
      }
      e_.word_wake_[w] = next;
    }

    Engine& e_;
  };

  /// "frontier": serial computation of the round's activity mask
  /// (Slab::kActivityMask) -- fault-event vertices plus the channel's
  /// conservative hearer superset of the transmit set -- and the list of
  /// its non-zero words.
  class FrontierStage final : public RoundStage {
   public:
    explicit FrontierStage(Engine& e) : e_(e) {}
    std::string name() const override { return "frontier"; }
    SlabSet reads() const override {
      return slab_bit(Slab::kTransmitBitmap) | slab_bit(Slab::kCrashedBitmap);
    }
    SlabSet writes() const override {
      return slab_bit(Slab::kActivityMask);
    }
    void run_block(RoundState& rs, graph::Vertex, graph::Vertex) override {
      // Clear exactly last round's frontier words (the rest are already
      // zero), then refill for this round.
      auto fwords = e_.frontier_.words();
      for (std::size_t w : e_.active_words_) fwords[w] = 0;
      e_.active_words_.clear();
      if (rs.faults) {
        // Fault-event vertices join the frontier so a just-recovered
        // vertex reads a freshly-zeroed heard word, never a stale one.
        for (const fault::FaultEvent& ev : e_.fault_events_) {
          e_.frontier_.set(ev.vertex);
        }
      }
      e_.channel_->fill_frontier(e_.transmitting_, e_.frontier_);
      for (std::size_t w = 0; w < fwords.size(); ++w) {
        if (fwords[w] != 0) e_.active_words_.push_back(w);
      }
      if (e_.m_active_blocks_ != nullptr) {
        *e_.m_active_blocks_ += e_.active_words_.size();
      }
    }

   private:
    Engine& e_;
  };

  /// "prepare_round": the channel's serial staging of everything
  /// transmit-set-dependent before the (possibly parallel) compute.
  class ScheduleStage final : public RoundStage {
   public:
    explicit ScheduleStage(Engine& e) : e_(e) {}
    std::string name() const override { return "prepare_round"; }
    SlabSet reads() const override {
      return slab_bit(Slab::kTransmitBitmap);
    }
    SlabSet writes() const override { return 0; }
    void run_block(RoundState& rs, graph::Vertex, graph::Vertex) override {
      e_.channel_->prepare_round(rs.round, e_.transmitting_);
    }

   private:
    Engine& e_;
  };

  /// "compute": reception physics, delegated to the channel model.  Zeroes
  /// and fills the packed heard words of the block's frontier words only;
  /// entries outside them are stale by contract and never read.  With a
  /// registry installed each block also tallies its fresh verdicts (the
  /// channel's, before any splice masks a delivery), and after_phase folds
  /// the block totals into the logical counters outside the timing
  /// bracket.
  class ChannelStage final : public RoundStage {
   public:
    explicit ChannelStage(Engine& e) : e_(e) {}
    std::string name() const override { return "compute"; }
    SlabSet reads() const override {
      return slab_bit(Slab::kTransmitBitmap) | slab_bit(Slab::kPacketSlab);
    }
    SlabSet writes() const override {
      return slab_bit(Slab::kHeardWords);
    }
    bool vertex_disjoint_writes() const override { return true; }
    void run_block(RoundState& rs, graph::Vertex begin,
                   graph::Vertex end) override {
      e_.frontier_.for_each_nonzero_run(
          begin, end, [&](std::size_t lo, std::size_t hi) {
            std::fill(e_.heard_.begin() + static_cast<std::ptrdiff_t>(lo),
                      e_.heard_.begin() + static_cast<std::ptrdiff_t>(hi),
                      0U);
          });
      e_.channel_->compute(rs.round, e_.transmitting_, e_.heard_,
                           e_.frontier_, begin, end);
      if (e_.m_rounds_ != nullptr) e_.tally_verdicts(rs, begin, end);
    }
    void after_phase(RoundState&) override { e_.record_logical_round(); }

   private:
    Engine& e_;
  };

  /// "receive": hands every listener its verdict -- the decoded packet on
  /// a clean single-transmitter round (unless a spliced stage masked the
  /// delivery), the null indicator otherwise.  In frontier words the
  /// verdict loop visits the live listeners that are awake or in the
  /// frontier, and an unmasked delivery wakes a parked one unless its
  /// promise is deaf (the delivery is still marked for the observers); in
  /// other words only awake listeners get the null reception, without
  /// reading their (stale) heard words.
  class ReceiveStage final : public RoundStage {
   public:
    explicit ReceiveStage(Engine& e) : e_(e) {}
    std::string name() const override { return "receive"; }
    SlabSet reads() const override {
      return slab_bit(Slab::kTransmitBitmap) | slab_bit(Slab::kPacketSlab) |
             slab_bit(Slab::kHeardWords) | slab_bit(Slab::kCrashedBitmap) |
             slab_bit(Slab::kDeliveryMask) | slab_bit(Slab::kRngStreams);
    }
    SlabSet writes() const override {
      return slab_bit(Slab::kRngStreams);
    }
    bool vertex_disjoint_writes() const override { return true; }
    void run_block(RoundState& rs, graph::Vertex begin,
                   graph::Vertex end) override {
      const Round t = rs.round;
      const auto fwords = e_.frontier_.words();
      const auto twords = e_.transmitting_.words();
      const auto cwords = e_.crashed_.words();
      const auto awake = e_.awake_.words();
      const std::size_t we = (static_cast<std::size_t>(end) + 63) / 64;
      for (std::size_t w = begin / 64; w < we; ++w) {
        const std::uint64_t up = awake[w];  // wake() below sets bits
        if (fwords[w] == 0) {
          for (std::uint64_t bits = up & ~twords[w]; bits != 0;
               bits &= bits - 1) {
            const auto u =
                static_cast<graph::Vertex>(w * 64 + std::countr_zero(bits));
            RoundContext ctx(t, e_.rngs_[u]);
            e_.processes_[u]->receive(std::nullopt, ctx);
          }
          continue;
        }
        // Transmitters don't listen; crashed vertices may sit in the
        // frontier (fault events join it) but are never awake.
        std::uint64_t listeners = (fwords[w] | up) & ~twords[w];
        if (rs.faults) listeners &= ~cwords[w];
        std::uint64_t delivered = 0;
        for (; listeners != 0; listeners &= listeners - 1) {
          const int b = std::countr_zero(listeners);
          const std::uint64_t bit = std::uint64_t{1} << b;
          const auto u = static_cast<graph::Vertex>(w * 64 + b);
          const std::uint64_t h = e_.heard_[u];
          if (static_cast<std::uint32_t>(h) == 1 && !masked(u)) {
            delivered |= bit;
            if ((up & bit) == 0) {
              // Inside a deaf promise the delivery is a no-op: it stays
              // marked for the observers and the tally, and u stays parked.
              if (e_.deaf_.test(u)) continue;
              wake(u, t);
            }
            RoundContext ctx(t, e_.rngs_[u]);
            e_.processes_[u]->receive(e_.outgoing_slab_[h >> 32], ctx);
          } else {
            // A masked delivery is a null reception: inside a parked
            // vertex's promise it is a no-op, so it does not wake.
            if ((up & bit) == 0) continue;
            RoundContext ctx(t, e_.rngs_[u]);
            e_.processes_[u]->receive(std::nullopt, ctx);
          }
        }
        e_.delivered_.words()[w] = delivered;
      }
    }
    void replay(RoundState& rs) override {
      // Fans the reception observers out from the frozen verdicts.  Every
      // delivery lies in a frontier word, where run_block marked it, so
      // without silence observers only those marks are visited; silence
      // observers need the walk over every listening vertex (heard entries
      // outside frontier words are stale and stand for 0).
      if (e_.obs_receive_.empty() && e_.obs_silence_.empty()) return;
      const Round t = rs.round;
      const auto fwords = e_.frontier_.words();
      const auto dwords = e_.delivered_.words();
      const auto receive = [&](graph::Vertex u) {
        const auto from = static_cast<graph::Vertex>(e_.heard_[u] >> 32);
        for (Observer* obs : e_.obs_receive_) {
          obs->on_receive(t, u, from, e_.outgoing_slab_[from]);
        }
      };
      if (e_.obs_silence_.empty()) {
        for (std::size_t w : e_.active_words_) {
          for (std::uint64_t bits = dwords[w]; bits != 0; bits &= bits - 1) {
            receive(static_cast<graph::Vertex>(w * 64 +
                                               std::countr_zero(bits)));
          }
        }
        return;
      }
      for (graph::Vertex u = 0; u < rs.vertex_count; ++u) {
        if (e_.transmitting_.test(u)) continue;
        if (rs.faults && e_.crashed_.test(u)) continue;
        const std::size_t w = u >> 6;
        if (fwords[w] != 0 && ((dwords[w] >> (u & 63)) & 1) != 0) {
          receive(u);
          continue;
        }
        const bool collision =
            fwords[w] != 0 && static_cast<std::uint32_t>(e_.heard_[u]) > 1;
        for (Observer* obs : e_.obs_silence_) {
          obs->on_silence(t, u, collision);
        }
      }
    }
    void epilogue(RoundState& rs) override {
      if (e_.hooks_ != nullptr) e_.hooks_->after_receive_phase(rs.round);
    }

   private:
    bool masked(graph::Vertex u) const {
      return e_.deliver_masked_ && e_.delivery_mask_.test(u);
    }

    /// Wakes a parked vertex on a delivery: batched cursor catch-up
    /// through round t-1, then the round-t transmit() call a per-round
    /// step would have made (the silent promise covers round t, so it must
    /// return nullopt and draw no randomness), then unpark.  word_wake_
    /// may now undershoot the word's parked minimum, which only costs one
    /// re-admission scan.
    void wake(graph::Vertex u, Round t) {
      if (e_.last_stepped_[u] < t - 1) {
        e_.processes_[u]->silent_steps(t - 1 - e_.last_stepped_[u]);
      }
      RoundContext ctx(t, e_.rngs_[u]);
      auto packet = e_.processes_[u]->transmit(ctx);
      DG_ASSERT(!packet.has_value());  // the promise covered round t
      (void)packet;
      e_.last_stepped_[u] = t;
      e_.awake_.set(u);  // blocks own whole words, so this never races
    }

    Engine& e_;
  };

  /// "output_flush": per-vertex end_round outputs, then the wrapper
  /// checkpoint.  Parked vertices promised a no-op end_round, so only
  /// awake vertices are visited; each is asked for a fresh silent promise
  /// (silent_steps(0)), and one that gives it leaves the awake mask, with
  /// its deaf bit and its word's word_wake_ updated.  The stepped words
  /// (for the shard guard) and vertices are tallied.
  class OutputFlushStage final : public RoundStage {
   public:
    explicit OutputFlushStage(Engine& e) : e_(e) {}
    std::string name() const override { return "output_flush"; }
    SlabSet reads() const override {
      return slab_bit(Slab::kCrashedBitmap) | slab_bit(Slab::kRngStreams);
    }
    SlabSet writes() const override {
      return slab_bit(Slab::kRngStreams);
    }
    bool vertex_disjoint_writes() const override { return true; }
    void run_block(RoundState& rs, graph::Vertex begin,
                   graph::Vertex end) override {
      const Round t = rs.round;
      const auto awake = e_.awake_.words();
      const auto deaf = e_.deaf_.words();
      const std::size_t we = (static_cast<std::size_t>(end) + 63) / 64;
      std::size_t words = 0, vertices = 0;
      for (std::size_t w = begin / 64; w < we; ++w) {
        const std::uint64_t up = awake[w];
        if (up == 0) continue;
        ++words;
        vertices += static_cast<std::size_t>(std::popcount(up));
        std::uint64_t parked = 0, deaf_bits = 0;
        Round wake_at = e_.word_wake_[w];
        for (std::uint64_t bits = up; bits != 0; bits &= bits - 1) {
          const int b = std::countr_zero(bits);
          const auto v = static_cast<graph::Vertex>(w * 64 + b);
          RoundContext ctx(t, e_.rngs_[v]);
          e_.processes_[v]->end_round(ctx);
          const std::int64_t j = e_.processes_[v]->silent_steps(0);
          if (j <= 0) continue;
          const Round until = promise_until(t, j);
          e_.silent_until_[v] = until;
          wake_at = std::min(wake_at, until);
          parked |= std::uint64_t{1} << b;
          if (e_.processes_[v]->deaf()) deaf_bits |= std::uint64_t{1} << b;
        }
        awake[w] = up & ~parked;
        deaf[w] = (deaf[w] & ~up) | deaf_bits;
        e_.word_wake_[w] = wake_at;
      }
      e_.unparked_words_.fetch_add(words, std::memory_order_relaxed);
      e_.stepped_vertices_.fetch_add(vertices, std::memory_order_relaxed);
    }
    void epilogue(RoundState& rs) override {
      if (e_.hooks_ != nullptr) e_.hooks_->after_output_phase(rs.round);
    }

   private:
    Engine& e_;
  };

  explicit EngineStages(Engine& e)
      : fault(e), transmit(e), frontier(e), schedule(e), channel(e),
        receive(e), output(e) {}

  FaultStage fault;
  TransmitStage transmit;
  FrontierStage frontier;
  ScheduleStage schedule;
  ChannelStage channel;
  ReceiveStage receive;
  OutputFlushStage output;
};

Engine::Engine(const graph::DualGraph& g, LinkScheduler& scheduler,
               std::vector<std::unique_ptr<Process>> processes,
               std::uint64_t master_seed)
    : graph_(&g),
      owned_channel_(std::make_unique<phys::DualGraphChannel>(scheduler)),
      channel_(owned_channel_.get()),
      processes_(std::move(processes)) {
  init(master_seed);
}

Engine::Engine(const graph::DualGraph& g, phys::ChannelModel& channel,
               std::vector<std::unique_ptr<Process>> processes,
               std::uint64_t master_seed)
    : graph_(&g), channel_(&channel), processes_(std::move(processes)) {
  init(master_seed);
}

Engine::~Engine() = default;

void Engine::init(std::uint64_t master_seed) {
  master_seed_ = master_seed;
  const graph::DualGraph& g = *graph_;
  DG_EXPECTS(g.finalized());
  DG_EXPECTS(processes_.size() == g.size());
  for (const auto& p : processes_) {
    DG_EXPECTS(p != nullptr);
  }
  rngs_.reserve(processes_.size());
  for (std::size_t v = 0; v < processes_.size(); ++v) {
    // Stream tag 0x9 partitions process streams away from other consumers
    // of the same master seed (scheduler, id assignment, generators).
    rngs_.emplace_back(master_seed, 0x900000000ULL + v);
  }
  // The channel derives its randomness (scheduler commitment, SINR fading)
  // from the same master seed the pre-seam engine handed the scheduler.
  channel_->bind(g, master_seed);

  outgoing_slab_.resize(processes_.size());
  transmitting_.resize(processes_.size());
  heard_.resize(processes_.size());
  delivered_.resize(processes_.size());
  crashed_.resize(processes_.size());
  delivery_mask_.resize(processes_.size());

  // Nobody parked yet: every cursor sits at round 0.
  frontier_.resize(processes_.size());
  last_stepped_.assign(processes_.size(), 0);
  silent_until_.assign(processes_.size(), 0);
  awake_.resize(processes_.size());
  awake_.set_all();
  deaf_.resize(processes_.size());
  word_wake_.assign(frontier_.word_count(), kParkedForever);
  shard_work_ = frontier_.word_count();

  all_shard_safe_ =
      std::all_of(processes_.begin(), processes_.end(),
                  [](const auto& p) { return p->shard_safe(); });
  round_threads_ = default_round_threads();

  // The core pipeline.  The on_round_begin fan-out rides on the transmit
  // slot so fault events keep preceding it.
  stages_ = std::make_unique<EngineStages>(*this);
  pipeline_.append(&stages_->fault);
  pipeline_.append(&stages_->transmit, /*round_begin_before=*/true);
  pipeline_.append(&stages_->frontier);
  pipeline_.append(&stages_->schedule);
  pipeline_.append(&stages_->channel);
  pipeline_.append(&stages_->receive);
  pipeline_.append(&stages_->output);
}

std::size_t Engine::default_round_threads() {
  const char* env = std::getenv("DG_ROUND_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  if (std::string_view(env) == "max") {
    return util::ThreadPool::hardware_threads();
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || parsed == 0) return 1;
  return static_cast<std::size_t>(parsed);
}

void Engine::configure(const EngineConfig& config) {
  if (config.round_threads != 0) round_threads_ = config.round_threads;
  if (config.has_fault_plan) {
    fault_plan_ = config.fault_plan;
    fault_listener_ = fault_plan_ != nullptr ? config.fault_listener : nullptr;
    if (fault_plan_ != nullptr) fault_plan_->bind(*graph_, master_seed_);
  }
  for (const SpliceSpec& spec : config.splices) {
    const std::string err = splice_stage(spec);
    DG_EXPECTS(err.empty());  // configs carry pre-validated splice lists
  }
  if (config.has_telemetry) {
    apply_telemetry(config.registry, config.trace_sink);
  }
}

std::string Engine::splice_stage(const SpliceSpec& spec) {
  std::vector<SpliceSpec> all = splices_;
  all.push_back(spec);
  std::string err = validate_splice_specs(all);
  if (!err.empty()) return err;
  pipeline_.insert_after(splice_anchor(spec),
                         build_splice_stage(spec, processes_.size()));
  splices_ = std::move(all);
  // Telemetry installed first: give the new stage its timing slot.
  if (registry_ != nullptr) rebuild_profiler();
  return "";
}

std::size_t Engine::pool_threads() const {
  return std::min(round_threads_, pool_cap_);
}

std::size_t Engine::shard_block_size() const {
  const std::size_t n = processes_.size();
  const std::size_t target_blocks = pool_threads() * 4;
  std::size_t size = (n + target_blocks - 1) / target_blocks;
  return (size + 63) / 64 * 64;
}

void Engine::add_observer(Observer* observer) {
  DG_EXPECTS(observer != nullptr);
  const unsigned mask = observer->interest();
  if (mask & Observer::kRoundBegin) obs_round_begin_.push_back(observer);
  if (mask & Observer::kTransmit) obs_transmit_.push_back(observer);
  if (mask & Observer::kReceive) obs_receive_.push_back(observer);
  if (mask & Observer::kSilence) obs_silence_.push_back(observer);
  if (mask & Observer::kRoundEnd) obs_round_end_.push_back(observer);
  if (mask & Observer::kFault) obs_fault_.push_back(observer);
}

void Engine::apply_telemetry(obs::Registry* registry, obs::TraceSink* sink) {
  registry_ = registry;
  trace_sink_ = registry != nullptr ? sink : nullptr;
  if (registry == nullptr) {
    rebuild_profiler();
    m_rounds_ = m_tx_ = m_delivered_ = m_collisions_ = m_silent_ = nullptr;
    m_crashes_ = m_recoveries_ = nullptr;
    m_dispatch_serial_ = m_dispatch_sharded_ = m_pool_jobs_ = nullptr;
    m_active_blocks_ = m_unparked_words_ = m_stepped_vertices_ = nullptr;
    m_tx_per_round_ = nullptr;
    return;
  }
  using obs::Domain;
  m_rounds_ = &registry->counter("engine.rounds", Domain::kLogical);
  m_tx_ = &registry->counter("engine.tx", Domain::kLogical);
  m_delivered_ = &registry->counter("engine.rx.delivered", Domain::kLogical);
  m_collisions_ =
      &registry->counter("engine.rx.collisions", Domain::kLogical);
  m_silent_ = &registry->counter("engine.rx.silent", Domain::kLogical);
  m_crashes_ = &registry->counter("engine.faults.crashes", Domain::kLogical);
  m_recoveries_ =
      &registry->counter("engine.faults.recoveries", Domain::kLogical);
  m_tx_per_round_ = &registry->histogram(
      "engine.tx_per_round", Domain::kLogical,
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  // Dispatch counts and thread knobs depend on round_threads by
  // definition, so they live in the (never-gated) timing domain.
  m_dispatch_serial_ =
      &registry->counter("engine.dispatch.serial", Domain::kTiming);
  m_dispatch_sharded_ =
      &registry->counter("engine.dispatch.sharded", Domain::kTiming);
  m_pool_jobs_ =
      &registry->counter("engine.dispatch.pool_jobs", Domain::kTiming);
  // Frontier words visited per round, summed (the name predates the
  // count's unit); a dispatch cost, so also timing-domain.
  m_active_blocks_ =
      &registry->counter("engine.active_blocks", Domain::kTiming);
  // Words with an unparked vertex (the output_flush tally the shard guard
  // reads), summed over rounds.
  m_unparked_words_ =
      &registry->counter("engine.unparked.words", Domain::kTiming);
  // Per-vertex steps (end_round calls), summed over rounds.
  m_stepped_vertices_ =
      &registry->counter("engine.stepped.vertices", Domain::kTiming);
  registry->gauge("engine.round_threads", Domain::kTiming) =
      static_cast<double>(round_threads_);
  registry->gauge("engine.vertices", Domain::kLogical) =
      static_cast<double>(processes_.size());
  rebuild_profiler();
}

void Engine::rebuild_profiler() {
  if (registry_ == nullptr) {
    profiler_.reset();
    for (RoundPipeline::Slot& slot : pipeline_.slots()) {
      slot.profile_slot = RoundPipeline::npos;
    }
    return;
  }
  // One timing slot per pipeline slot, in pipeline order; the registry
  // keys counters by name, so rebuilding (after a splice) keeps
  // accumulating into the same engine.phase.<name>.ns slots.
  profiler_ = std::make_unique<obs::PhaseProfiler>(*registry_);
  for (RoundPipeline::Slot& slot : pipeline_.slots()) {
    slot.profile_slot = profiler_->register_stage(slot.stage->name());
  }
}

void Engine::tally_verdicts(const RoundState& rs, graph::Vertex begin,
                            graph::Vertex end) {
  // Frontier words read their (fresh) heard entries; every live
  // non-transmitter in a non-frontier word heard nothing by construction,
  // so whole words tally as silence via popcounts without touching stale
  // heard_.
  const auto fwords = frontier_.words();
  const auto twords = transmitting_.words();
  const auto cwords = crashed_.words();
  std::uint64_t tx = 0, delivered = 0, collisions = 0, silent = 0;
  const std::size_t we = (static_cast<std::size_t>(end) + 63) / 64;
  for (std::size_t w = begin / 64; w < we; ++w) {
    tx += static_cast<std::uint64_t>(std::popcount(twords[w]));
    std::uint64_t live = transmitting_.word_mask(w) & ~twords[w];
    if (rs.faults) live &= ~cwords[w];
    if (fwords[w] == 0) {
      silent += static_cast<std::uint64_t>(std::popcount(live));
      continue;
    }
    while (live != 0) {
      const int b = std::countr_zero(live);
      live &= live - 1;
      const auto count = static_cast<std::uint32_t>(
          heard_[w * 64 + static_cast<std::size_t>(b)]);
      if (count == 1) {
        ++delivered;
      } else if (count > 1) {
        ++collisions;
      } else {
        ++silent;
      }
    }
  }
  constexpr auto relaxed = std::memory_order_relaxed;
  tally_.tx.fetch_add(tx, relaxed);
  tally_.delivered.fetch_add(delivered, relaxed);
  tally_.collisions.fetch_add(collisions, relaxed);
  tally_.silent.fetch_add(silent, relaxed);
}

void Engine::record_logical_round() {
  if (m_rounds_ == nullptr) return;
  constexpr auto relaxed = std::memory_order_relaxed;
  *m_rounds_ += 1;
  const std::uint64_t tx = tally_.tx.exchange(0, relaxed);
  *m_tx_ += tx;
  m_tx_per_round_->record(static_cast<double>(tx));
  *m_delivered_ += tally_.delivered.exchange(0, relaxed);
  *m_collisions_ += tally_.collisions.exchange(0, relaxed);
  *m_silent_ += tally_.silent.exchange(0, relaxed);
}

Process& Engine::process(graph::Vertex v) {
  DG_EXPECTS(v < processes_.size());
  return *processes_[v];
}

const Process& Engine::process(graph::Vertex v) const {
  DG_EXPECTS(v < processes_.size());
  return *processes_[v];
}

Rng& Engine::process_rng(graph::Vertex v) {
  DG_EXPECTS(v < rngs_.size());
  return rngs_[v];
}

void Engine::apply_faults(Round t) {
  if (fault_plan_ == nullptr) return;
  fault_events_.clear();
  fault_plan_->plan_round(t, crashed_, fault_events_);
  for (const fault::FaultEvent& ev : fault_events_) {
    DG_EXPECTS(ev.vertex < processes_.size());
    if (ev.kind == fault::FaultKind::kCrash) {
      if (crashed_.test(ev.vertex)) continue;  // idempotent
      // Catch a parked vertex up through t-1 first, so the listener and
      // on_crash() see exactly the state per-round stepping would have
      // left (all skipped rounds sat inside the silent promise).  The
      // vertex then parks forever; recovery below unparks it.
      if (last_stepped_[ev.vertex] < t - 1) {
        processes_[ev.vertex]->silent_steps(t - 1 - last_stepped_[ev.vertex]);
      }
      last_stepped_[ev.vertex] = t - 1;
      silent_until_[ev.vertex] = kParkedForever;
      awake_.reset(ev.vertex);
      crashed_.set(ev.vertex);
      // Listener first: it may read pre-crash process state (e.g. abort
      // the in-flight broadcast) before on_crash wipes it.
      if (fault_listener_ != nullptr) fault_listener_->on_crash(t, ev.vertex);
      processes_[ev.vertex]->on_crash(t);
      for (Observer* obs : obs_fault_) obs->on_crash(t, ev.vertex);
      if (m_crashes_ != nullptr) *m_crashes_ += 1;
      if (trace_sink_ != nullptr) trace_sink_->crash(t, ev.vertex);
    } else {
      if (!crashed_.test(ev.vertex)) continue;  // idempotent
      // Unpark: the recovered vertex steps from round t (on_recover
      // rewrites its cursor from the absolute round, so no catch-up).
      last_stepped_[ev.vertex] = t - 1;
      awake_.set(ev.vertex);
      crashed_.reset(ev.vertex);
      // Process first: the listener talks to a re-initialized process.
      processes_[ev.vertex]->on_recover(t);
      if (fault_listener_ != nullptr) {
        fault_listener_->on_recover(t, ev.vertex);
      }
      for (Observer* obs : obs_fault_) obs->on_recover(t, ev.vertex);
      if (m_recoveries_ != nullptr) *m_recoveries_ += 1;
      if (trace_sink_ != nullptr) trace_sink_->recover(t, ev.vertex);
    }
  }
}

void Engine::run_round() {
  // One block covering every vertex, inline on the caller, unless the
  // pool's size, the processes' consent, the vertex count and the shard
  // guard allow two or more.
  const std::size_t n = processes_.size();
  if (pool_threads() > 1 && all_shard_safe_ && n > shard_block_size() &&
      shard_work_ > shard_min_words_) {
    if (pool_ == nullptr || pool_->threads() != pool_threads()) {
      pool_ = std::make_unique<util::ThreadPool>(pool_threads());
      // Channels may shard their serial-section precomputes (e.g. the
      // SINR far field) over the same pool; it is idle whenever the
      // engine calls into the channel serially.
      channel_->set_round_pool(pool_.get());
    }
    run_pipeline(shard_block_size());
  } else {
    run_pipeline(std::max<std::size_t>(n, 1));
  }
}

void Engine::run_pipeline(std::size_t block_size) {
  const Round t = ++round_;
  const std::size_t blocks = (processes_.size() + block_size - 1) / block_size;
  if (profiler_ != nullptr) {
    profiler_->begin_round(t);
    *(blocks > 1 ? m_dispatch_sharded_ : m_dispatch_serial_) += 1;
  }
  deliver_masked_ = false;
  unparked_words_.store(0, std::memory_order_relaxed);
  stepped_vertices_.store(0, std::memory_order_relaxed);

  RoundState rs;
  rs.round = t;
  rs.faults = fault_plan_ != nullptr;
  rs.vertex_count = processes_.size();
  rs.transmitting = &transmitting_;
  rs.packets = &outgoing_slab_;
  rs.heard = &heard_;
  rs.crashed = &crashed_;
  rs.delivery_mask = &delivery_mask_;
  rs.activity = &frontier_;
  rs.deliver_masked = &deliver_masked_;
  rs.registry = registry_;
  rs.trace = trace_sink_;

  const auto& slots = pipeline_.slots();
  for (const RoundPipeline::Group& group : pipeline_.groups()) {
    if (slots[group.first].round_begin_before) {
      for (Observer* obs : obs_round_begin_) {
        obs->on_round_begin(t);
      }
    }
    // A serial stage is a one-stage group run as one whole-range block.
    if (group.disjoint) {
      run_group(group, rs, block_size, blocks);
    } else {
      run_group(group, rs, processes_.size(), 1);
    }
  }
  const std::size_t unparked = unparked_words_.load(std::memory_order_relaxed);
  shard_work_ = unparked + active_words_.size();
  if (m_unparked_words_ != nullptr) {
    *m_unparked_words_ += unparked;
    *m_stepped_vertices_ +=
        stepped_vertices_.load(std::memory_order_relaxed);
  }

  for (Observer* obs : obs_round_end_) {
    obs->on_round_end(t);
  }
  if (profiler_ != nullptr) profiler_->end_round(trace_sink_);
}

void Engine::run_group(const RoundPipeline::Group& group, RoundState& rs,
                       std::size_t block_size, std::size_t blocks) {
  using Clock = std::chrono::steady_clock;
  const auto& slots = pipeline_.slots();
  obs::PhaseProfiler* profiler = profiler_.get();
  // Under a profiler each stage's own time is measured: its serial hooks
  // (in the last row of segment_ns_) and its segment of every block (one
  // row per block), the latter standing for its share of the pass's wall
  // clock.  The whole group's wall clock, less the untimed after_phase
  // folds, is then split between the stages' rows by their own times, so
  // the driver's bookkeeping between the measured pieces is not lost.
  const std::size_t width = group.last - group.first;
  const auto group_start = profiler != nullptr ? Clock::now()
                                               : Clock::time_point{};
  if (profiler != nullptr) segment_ns_.assign((blocks + 1) * width, 0);
  const auto serial = [&](std::size_t i, const auto& hooks) {
    if (profiler == nullptr) return hooks();
    const auto mark = Clock::now();
    hooks();
    segment_ns_[blocks * width + (i - group.first)] += elapsed_ns(mark);
  };
  for (std::size_t i = group.first; i < group.last; ++i) {
    if (!slots[i].stage->active()) continue;
    serial(i, [&] { slots[i].stage->prologue(rs); });
  }

  // Each block runs the group's stages in pipeline order.
  const auto body = [&](std::size_t b) {
    const auto begin = static_cast<graph::Vertex>(b * block_size);
    const auto end = static_cast<graph::Vertex>(
        std::min(b * block_size + block_size, processes_.size()));
    for (std::size_t i = group.first; i < group.last; ++i) {
      RoundStage& stage = *slots[i].stage;
      if (!stage.active()) continue;
      if (profiler == nullptr) {
        stage.run_block(rs, begin, end);
        continue;
      }
      const auto mark = Clock::now();
      stage.run_block(rs, begin, end);
      segment_ns_[b * width + (i - group.first)] = elapsed_ns(mark);
    }
  };
  const auto start = profiler != nullptr ? Clock::now() : Clock::time_point{};
  if (blocks > 1) {
    pool_->for_blocks(blocks, body);
    if (m_pool_jobs_ != nullptr) *m_pool_jobs_ += 1;
  } else {
    body(0);
  }
  const std::uint64_t pass_ns = profiler != nullptr ? elapsed_ns(start) : 0;

  std::uint64_t untimed_ns = 0;
  for (std::size_t i = group.first; i < group.last; ++i) {
    RoundStage& stage = *slots[i].stage;
    if (!stage.active()) continue;
    serial(i, [&] {
      stage.replay(rs);
      stage.epilogue(rs);
    });
    if (profiler == nullptr) {
      stage.after_phase(rs);
      continue;
    }
    const auto mark = Clock::now();
    stage.after_phase(rs);
    untimed_ns += elapsed_ns(mark);
  }
  if (profiler == nullptr) return;

  if (blocks > 1) profiler->add_parallel_ns(pass_ns);
  std::uint64_t segments = 0;
  for (std::size_t k = 0; k < blocks * width; ++k) segments += segment_ns_[k];
  const auto own_ns = [&](std::size_t i) {
    double own = static_cast<double>(segment_ns_[blocks * width + i]);
    if (segments == 0) return own;
    std::uint64_t mine = 0;
    for (std::size_t b = 0; b < blocks; ++b) mine += segment_ns_[b * width + i];
    return own + static_cast<double>(pass_ns) * static_cast<double>(mine) /
                     static_cast<double>(segments);
  };
  double own_total = 0.0;
  for (std::size_t i = 0; i < width; ++i) own_total += own_ns(i);
  if (own_total <= 0.0) return;
  const auto group_ns =
      static_cast<double>(elapsed_ns(group_start) - untimed_ns);
  for (std::size_t i = 0; i < width; ++i) {
    profiler->add_phase_ns(
        slots[group.first + i].profile_slot,
        static_cast<std::uint64_t>(own_ns(i) / own_total * group_ns));
  }
}

void Engine::run_rounds(Round count) {
  DG_EXPECTS(count >= 0);
  for (Round i = 0; i < count; ++i) {
    run_round();
  }
}

}  // namespace dg::sim
