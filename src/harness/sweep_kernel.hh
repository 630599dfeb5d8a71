/**
 * @file
 * Fused multi-config sweep kernel.
 *
 * Every paper table and ablation evaluates N IndirectConfigs against
 * the *same* trace.  runAccuracy() pays a full branch-column decode
 * and re-derives identical front-end state per config; for Table 9's
 * grid that is ten redundant passes per workload.  runSweep() fuses
 * the batch into one pass over the trace's cached BranchStream:
 *
 *  - The architectural front end (BTB, direction predictor, global
 *    history register, return address stack) is trained exclusively
 *    with architectural outcomes carried by the trace — never with
 *    predictions — so its state trajectory is identical for every
 *    config sharing one FrontendConfig.  The kernel keeps ONE shared
 *    front-end core per batch instead of N.
 *  - Per-member predictor state lives in structure-of-arrays family
 *    groups (harness/batched_predictors.hh): lookups and updates are
 *    tight devirtualized loops over contiguous columns, with one
 *    history computation per distinct HistorySpec per branch.
 *  - Per-config divergence exists only at indirect jumps/calls — a
 *    small minority of branches.
 *
 * The returned FrontendStats are bit-identical to running each config
 * through runAccuracy() separately: shared accumulators cover the
 * classes whose outcomes cannot differ across members, and
 * allBranches is composed as shared-non-indirect + member-indirect
 * via RatioStat::merge (pure counter addition, order-free).
 *
 * Batching rule: all members of one batch share one FrontendConfig —
 * grids that vary the front end (Table 2's 2-bit BTB column, ablation
 * 6's tournament machine) issue one batch per front-end variant, down
 * to a batch of one, which degenerates to exactly the per-config path.
 *
 * Timing cells do not fuse: each (trace x config) timing run is its own
 * runTiming() job on the ParallelRunner (harness/paper_tables.cc).
 */

#ifndef TPRED_HARNESS_SWEEP_KERNEL_HH
#define TPRED_HARNESS_SWEEP_KERNEL_HH

#include <cstddef>
#include <span>
#include <vector>

#include "harness/experiment.hh"

namespace tpred
{

/**
 * Evaluates every config against @p trace in one fused pass.
 *
 * @param trace   The shared trace; its BranchStream is built lazily
 *                on first use and cached for all configs and threads.
 * @param configs The batch; histories may differ (trackers are
 *                grouped internally by HistorySpec).
 * @param fe      Front-end sizes shared by the whole batch.
 * @return Per-config statistics, in batch order, bit-identical to
 *         runAccuracy(trace, configs[i], fe) for each i.
 */
std::vector<FrontendStats> runSweep(const SharedTrace &trace,
                                    std::span<const IndirectConfig> configs,
                                    const FrontendConfig &fe = {});

/**
 * Same fused kernel over an already-extracted branch stream — the
 * entry point for segmented containers, whose dense stream is built
 * one window at a time by extractBranchStream
 * (harness/shard_replay.hh) instead of from a resident trace.
 * stream.opCount supplies the per-config instruction totals.
 */
std::vector<FrontendStats>
runSweep(const BranchStream &stream,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe = {});

/**
 * Partitions config indices into groups of equal HistorySpec, first-
 * seen order — the (workload x config-group) unit the accuracy
 * paper-table render functions parallelize over.
 */
std::vector<std::vector<size_t>>
groupByHistory(std::span<const IndirectConfig> configs);

} // namespace tpred

#endif // TPRED_HARNESS_SWEEP_KERNEL_HH
