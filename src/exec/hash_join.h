// Hash join with bitvector-filter creation (Algorithm 1, lines 8-10).
//
// Open() is the pipeline breaker: it drains the build pipeline through the
// pipeline driver (pipeline.h) — wide when exec.threads > 1 — into a
// bucket-grouped hash table (each bucket one contiguous run of entries,
// build_side.h), creates this join's bitvector filter (unless
// pruned/disabled), and only then opens the probe child. That order
// realizes Algorithm 1's filter-dependency order: every pushed-down
// filter's contents exist before the subtree it filters starts producing
// tuples.
//
// The build result lives in an immutable JoinBuildSide (build_side.h). When
// the runtime carries a BuildCache (src/server/build_cache.h) and this
// build is shareable (src/optimizer/build_signature.h), Open() consults the
// cache instead of constructing unconditionally: a hit shares another
// query's completed build read-only and replays its as-if-built stats; a
// miss constructs under the cache's single-flight protocol so concurrent
// queries needing the same build pay for it once.
//
// The probe side is re-entrant: all per-consumer iteration state (current
// input batch, in-progress bucket run, residual-filter stats) lives in
// a ProbeState, so after Open() every pipeline worker streams batches
// through ProbeNext() with its own state against the read-only table; one
// worker is the degenerate case of the same code. Per-state counters merge
// into the shared stats exactly once (MergeProbeStats), keeping
// probed/passed and ObservedLambda equal to the one-worker counts at any
// thread count.
//
// A probe row's matches are the entries of its bucket's run whose hash
// equals the row's hash (and, for multi-key joins, whose keys compare
// equal). Candidate collection buffers them into a candidate stride, in one
// of two ways:
//
//  * one candidate per match, the join's output row per (build, probe)
//    pair — every join that materializes a build-side column;
//  * one candidate per *matched probe row*, carrying its number of matches
//    as a row multiplicity (batch.h) — a *counting* join. CompileNode
//    makes every join on the aggregate's top probe spine whose output
//    takes no build-side column a counting one (Config::counts_matches):
//    its output rows would only repeat the probe row once per match for
//    the aggregate to add up. A pure bucket (build_side.h) gives a
//    single-key join the count without walking the run.
//
// Either way a candidate's multiplicity is its match count (1 per match)
// times the probe row's own multiplicity, so a join above a counting join
// carries the multiplicity through, and a join that materializes build
// columns gives each output row its probe row's multiplicity. An output
// batch is filled from as many input batches as it takes, so once it has a
// multiplicity column every row written after gets an entry (1 for rows of
// an input batch without one). Residual
// filters (probe columns ≠ this join's equi-join keys) are probed batched
// over the stride: each residual winnows a selection vector via
// MayContainBatch (hashing the stride's keys in one pass), the stride
// compacts to the survivors, and one copy loop materializes every join's
// output. Row counters count logical tuples: rows_prefilter, rows_out,
// probe_rows_in/_matched and residual probed/passed sum multiplicities,
// so they equal the counts of a join that repeats rows (modulo 2^64, see
// metrics.h); rows_emitted counts the physical rows written.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/exec/build_side.h"
#include "src/exec/exec_config.h"
#include "src/exec/operator.h"

namespace bqo {

class HashJoinOperator final : public PhysicalOperator {
 public:
  struct Config {
    /// Positions of the equi-join key columns in the children's schemas
    /// (aligned: build_key_positions[i] joins probe_key_positions[i]).
    std::vector<int> build_key_positions;
    std::vector<int> probe_key_positions;
    /// Output column -> (from_build, position in that child's schema).
    std::vector<std::pair<bool, int>> output_sources;
    /// Runtime slot this join fills with its build keys, or -1.
    int creates_filter_id = -1;
    /// Residual filters applied to this join's output; key_positions index
    /// the join's output schema.
    std::vector<ResolvedFilter> residual_filters;
    FilterConfig filter_config;
    /// Emit each matched probe row once with its match count as the row
    /// multiplicity instead of once per match. Only for joins whose output
    /// takes no build-side column (the constructor CHECKs it), on the
    /// aggregate's top pipeline: build pipelines take no multiplicities.
    bool counts_matches = false;
    /// Threading knobs for the build phase: the build pipeline drains on
    /// that many workers (canonical-order reassembly, see pipeline.h) and,
    /// at threads > 1, the bitvector filter is created from per-worker
    /// partials merged through BitvectorFilter::MergeFrom.
    ExecConfig exec;
  };

  /// Per-consumer probe state: the input batch being drained, the
  /// in-progress bucket run (never left pending by a counting join, which
  /// walks a probe row's run in one go), candidate/selection scratch for
  /// the batched residual probes, and private stats accumulators. Each
  /// pipeline worker owns one per join on its chain.
  /// A default-constructed state is ready to probe. MergeProbeStats folds
  /// the accumulators into the shared counters once the owner is quiesced,
  /// so merged probed/passed totals are exactly the single-threaded counts.
  /// The stride scratch is one block, allocated by ProbeNext when the
  /// first probe row arrives, so a join no probe row reaches allocates
  /// none. It is never zero-filled (batch.h), and the residual part is
  /// sized to the residual filters that hash their own keys: empty when
  /// every residual reuses the probe hash.
  struct ProbeState {
    Batch in;                    ///< current input batch from downstream
    int cursor = 0;              ///< next unconsumed row of `in`
    /// In-progress bucket run of probe row cursor - 1: the entries
    /// [pending_entry, pending_end) are still to walk; none when empty.
    int32_t pending_entry = 0;
    int32_t pending_end = 0;
    uint64_t pending_hash = 0;   ///< probe hash of the run's probe row
    bool input_done = false;     ///< upstream exhausted
    /// Backing block of the scratch arrays below; null until the first
    /// probe row.
    std::unique_ptr<std::byte[]> scratch;
    uint64_t* hashes = nullptr;  ///< composite key hash per row of `in`
    // Candidate stride: matched (build row, probe row, probe hash,
    // multiplicity) tuples buffered ahead of the batched residual winnow.
    int32_t* cand_build = nullptr;  ///< build-side row offsets (not counting)
    int32_t* cand_probe = nullptr;  ///< row indices into `in`
    uint64_t* cand_hash = nullptr;  ///< join-key probe hash per candidate
    /// Multiplicity per candidate; written only for strides that carry
    /// one (a counting join, or input with a multiplicity column).
    int64_t* cand_mult = nullptr;
    uint16_t* sel = nullptr;        ///< surviving candidate positions
    uint64_t* rhashes = nullptr;    ///< residual hash scratch
    /// Residual key gather scratch: one kBatchSize stride per key of the
    /// widest residual filter that does not reuse the probe hash.
    int64_t* rkeys = nullptr;
    // Private accumulators, merged once by MergeProbeStats. All but
    // rows_emitted count logical tuples (multiplicities summed).
    /// Aligned with residual_filters once the scratch exists.
    std::vector<FilterStats> residual_stats;
    int64_t rows_prefilter = 0;
    int64_t rows_out = 0;
    int64_t rows_emitted = 0;  ///< physical rows written to output batches
    // Probe-side match accounting (OperatorStats::probe_rows_in/_matched):
    // rows_in counts consumed probe rows (every input batch is consumed
    // whole, so it counts when loaded); rows_matched counts those whose
    // bucket run produced >= 1 hash+key match. pending_matched carries the
    // per-row "already counted" bit across a run that resumes in a later
    // ProbeNext call.
    int64_t rows_in = 0;
    int64_t rows_matched = 0;
    bool pending_matched = false;
  };

  /// Pulls the next input batch into *in; false when upstream is
  /// exhausted. Non-owning — a pointer to the caller's callable plus a
  /// trampoline — so passing one per ProbeNext call never allocates; the
  /// callable must outlive the call.
  class NextInputFn {
   public:
    template <typename F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, NextInputFn>)
    NextInputFn(const F& fn)  // NOLINT implicit
        : fn_(&fn), call_([](const void* f, Batch* in) {
            return (*static_cast<const F*>(f))(in);
          }) {}
    bool operator()(Batch* in) const { return call_(fn_, in); }

   private:
    const void* fn_;
    bool (*call_)(const void*, Batch*);
  };

  HashJoinOperator(std::unique_ptr<PhysicalOperator> build,
                   std::unique_ptr<PhysicalOperator> probe,
                   OutputSchema schema, Config config, FilterRuntime* runtime,
                   std::string label);

  void Open() override;
  void Close() override;

  std::vector<PhysicalOperator*> children() override {
    return {build_.get(), probe_.get()};
  }

  /// \brief The probe-side child; pipeline decomposition descends through it
  /// (the build child hangs below this operator's breaker).
  PhysicalOperator* probe_child() { return probe_.get(); }

  /// \brief Fill `out` with join results, pulling input batches through
  /// `next_input` as needed; false when `out` came up empty with the input
  /// exhausted. Safe to call from multiple threads after Open(), each with
  /// its own ProbeState (and an input source private to that caller, e.g. a
  /// scan morsel cursor); the table and filters are read-only by then.
  bool ProbeNext(Batch* out, ProbeState* ps, NextInputFn next_input);

  /// \brief Fold a probe state's accumulators into the shared stats, once
  /// per worker. Call with the owning worker quiesced (joined); not
  /// thread-safe.
  void MergeProbeStats(const ProbeState& ps);

 private:
  /// \brief Construct this join's build side from scratch: open the build
  /// child, drain its pipeline in canonical order (wide when threads > 1),
  /// close it, hash, create+fill the filter, bucketize, and snapshot the
  /// as-if-built stats. Doubles as the BuildCache builder closure body.
  std::shared_ptr<const JoinBuildSide> ConstructBuildSide();
  /// \brief Composite-key hash of every build row, batched.
  void HashBuildRows(const JoinBuildSide& side,
                     std::vector<uint64_t>* hashes) const;
  /// \brief Allocate `ps`'s scratch block and point its arrays into it.
  void AllocateProbeScratch(ProbeState* ps) const;
  /// \brief Start on a freshly loaded ps->in: rewind the cursor, count
  /// its rows into rows_in, hash every row into ps->hashes and prefetch
  /// the bucket heads the stride is about to touch.
  void StartProbeBatch(ProbeState* ps) const;
  /// \brief Key equality of a build entry and a probe row; multi-key joins
  /// only (a single-key join's hash equality already implies it).
  bool KeysEqual(const JoinBuildSide::Entry& entry, const Batch& batch,
                 int row) const;
  /// \brief Batched residual-filter pass over `ncand` buffered candidates:
  /// winnows ps->sel in place and returns the surviving count. `mult` is
  /// the candidates' multiplicities (null: each counts once), which the
  /// filters' probed/passed counters sum.
  int WinnowResiduals(ProbeState* ps, int ncand, const int64_t* mult);

  std::unique_ptr<PhysicalOperator> build_;
  std::unique_ptr<PhysicalOperator> probe_;
  Config config_;
  FilterRuntime* runtime_;

  /// The build result (read-only after Open). Owned jointly with the
  /// BuildCache and any other query sharing it; privately built sides have
  /// this operator as their only owner. side_ is the borrowed raw view the
  /// probe hot path reads through.
  std::shared_ptr<const JoinBuildSide> build_side_;
  const JoinBuildSide* side_ = nullptr;
  int build_width_ = 0;

  /// residual_uses_probe_hash_[i]: residual filter i's key columns coincide
  /// (position by position) with this join's equi-join keys, so the cached
  /// probe hash doubles as its composite hash for every matched row.
  std::vector<uint8_t> residual_uses_probe_hash_;
  /// Keys of the widest residual filter that hashes its own keys (0 when
  /// every residual reuses the probe hash): sizes ProbeState::rhashes and
  /// ProbeState::rkeys.
  size_t residual_hash_keys_ = 0;
};

}  // namespace bqo
