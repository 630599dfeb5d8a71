#include "harness/sweep_kernel.hh"

#include <cstdint>
#include <memory>
#include <optional>

#include "bpred/btb_hierarchy.hh"
#include "bpred/gshare.hh"
#include "bpred/ras.hh"
#include "bpred/tournament.hh"
#include "harness/batched_predictors.hh"
#include "obs/metrics.hh"
#include "trace/branch_stream.hh"

namespace tpred
{

std::vector<std::vector<size_t>>
groupByHistory(std::span<const IndirectConfig> configs)
{
    std::vector<std::vector<size_t>> groups;
    std::vector<HistorySpec> specs;
    for (size_t i = 0; i < configs.size(); ++i) {
        const size_t g = findOrAppendHistorySpec(specs,
                                                 configs[i].history);
        if (g == groups.size())
            groups.emplace_back();
        groups[g].push_back(i);
    }
    return groups;
}

std::vector<FrontendStats>
runSweep(const SharedTrace &trace,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe)
{
    static const obs::Counter streams_built =
        obs::globalMetrics().counter("sweep.streams_built");
    if (configs.empty())
        return {};
    const BranchStream &stream =
        trace.compact().branchStream([] { streams_built.inc(); });
    return runSweep(stream, configs, fe);
}

std::vector<FrontendStats>
runSweep(const BranchStream &stream,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe)
{
    static const obs::Counter batches =
        obs::globalMetrics().counter("sweep.batches");
    static const obs::Counter swept_configs =
        obs::globalMetrics().counter("sweep.configs");
    static const obs::Counter history_groups =
        obs::globalMetrics().counter("sweep.history_groups");
    static const obs::Counter branches_fused =
        obs::globalMetrics().counter("sweep.branches");
    static const obs::Timer phase =
        obs::globalMetrics().timer("phase.sweep");

    if (configs.empty())
        return {};

    obs::ScopedTimer timed(phase);
    batches.inc();
    swept_configs.inc(configs.size());
    branches_fused.inc(stream.size());

    // --- Batch state ----------------------------------------------
    // SoA family groups with deduplicated trackers; the dense hot
    // columns are built once here, so the hot loop never re-tests
    // "does this member have a predictor".
    BatchedPredictors batch(configs);
    history_groups.inc(batch.trackerCount());

    // --- Shared architectural core --------------------------------
    // Trained only with architectural outcomes, so its trajectory is
    // independent of any member's predictions: one instance stands in
    // for the per-config copies runAccuracy() would build.
    std::unique_ptr<BtbHierarchy> btb = makeBtbHierarchy(fe.btb);
    GShare gshare(fe.gshareIndexBits);
    TournamentPredictor tournament(fe.tournament);
    PatternHistory ghr(fe.gshareHistoryBits);
    ReturnAddressStack ras(fe.rasDepth);
    const bool use_tournament =
        fe.direction == DirectionScheme::Tournament;

    // Accumulators for the classes whose outcomes are config-
    // independent; per-member divergence exists only at indirect
    // jumps and calls.
    RatioStat shared_non_indirect;  ///< allBranches minus indirect
    RatioStat cond_direction;
    RatioStat cond_branches;
    RatioStat uncond_direct;
    RatioStat returns;
    RatioStat btb_hits;

    const size_t n = stream.size();
    for (size_t i = 0; i < n; ++i) {
        const MicroOp op = stream.opAt(i);
        const uint64_t pc = stream.pc[i];
        const uint64_t next_pc = stream.target[i];
        const uint64_t fall = stream.fallthrough[i];
        const auto kind = static_cast<BranchKind>(stream.kind[i]);
        const bool taken = stream.taken[i] != 0;

        const std::optional<BtbPrediction> btb_pred = btb->lookup(pc).pred;
        btb_hits.record(btb_pred.has_value());

        switch (kind) {
          case BranchKind::CondDirect: {
            const bool dir = use_tournament
                                 ? tournament.predict(pc, ghr.value())
                                 : gshare.predict(pc, ghr.value());
            uint64_t predicted = fall;
            if (dir && btb_pred)
                predicted = btb_pred->target;
            const bool correct = predicted == next_pc;
            shared_non_indirect.record(correct);
            cond_direction.record(dir == taken);
            cond_branches.record(correct);
            break;
          }

          case BranchKind::UncondDirect:
          case BranchKind::Call: {
            const uint64_t predicted =
                btb_pred ? btb_pred->target : fall;
            const bool correct = predicted == next_pc;
            shared_non_indirect.record(correct);
            uncond_direct.record(correct);
            break;
          }

          case BranchKind::Return: {
            const uint64_t predicted = ras.pop();
            const bool correct = predicted == next_pc;
            shared_non_indirect.record(correct);
            returns.record(correct);
            break;
          }

          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall: {
            // The only per-member work on the whole path: SoA family
            // loops, histories read before any tracker observes this
            // op, matching the per-config ordering.
            batch.predictAll(op, btb_pred.has_value(),
                             btb_pred ? btb_pred->target : 0);
            batch.recordOutcomes(next_pc);
            break;
          }

          case BranchKind::None:
            break;  // forEachBranch never yields these
        }

        if (kind == BranchKind::Call ||
            kind == BranchKind::IndirectCall) {
            ras.push(fall);
        }

        // --- Training (architectural, hence shared) ---------------
        if (kind == BranchKind::CondDirect) {
            if (use_tournament)
                tournament.update(pc, ghr.value(), taken);
            else
                gshare.update(pc, ghr.value(), taken);
            ghr.update(taken);
        }
        btb->update(op);
        if (isIndirectNonReturn(kind))
            batch.updateAll(next_pc);
        batch.observeTrackers(op);
    }

    // One counted pass over the stream, whatever the batch size.
    creditBtbCounters(btb->hstats());

    // --- Compose per-config statistics ----------------------------
    std::vector<FrontendStats> out(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        FrontendStats &s = out[i];
        s.instructions = stream.opCount;
        s.condDirection = cond_direction;
        s.condBranches = cond_branches;
        s.uncondDirect = uncond_direct;
        s.returns = returns;
        s.btbHits = btb_hits;
        s.indirectJumps = batch.indirectStats(i);
        s.allBranches = shared_non_indirect;
        s.allBranches.merge(batch.indirectStats(i));
    }
    return out;
}

} // namespace tpred
