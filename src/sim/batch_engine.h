/**
 * @file
 * BatchDecisionEngine: the SoA gather/commit core of the batched serve
 * hot path (DESIGN.md §14).
 *
 * Per event-loop tick the serving layer *gathers* the ready slice of
 * its admission queue into this engine's structure-of-arrays slots —
 * per-request deltas only (request id, arrival/deadline times, workload
 * index, deadline slack against the tick clock) plus a prefetched
 * pointer into the PR-5 CostModelCache network entry — and then
 * *commits* the slots one by one. All slot storage is reserved once at
 * construction (the arena), so steady-state gathering performs zero
 * heap allocations per event.
 *
 * Bit-exact parity contract: the engine never reorders, hoists, or
 * fuses any floating-point or RNG operation of one-request-at-a-time
 * serving. Gathering only copies queue state that commits would have
 * read anyway, and the per-request best-local-target memo returns the
 * value the duplicate call would have recomputed (InferenceSimulator::
 * bestLocalTarget is a pure function of its arguments). Consequently
 * the batch size has no observable effect: any --batch value and
 * --direct produce byte-identical traces, metrics, reports, and
 * Q-tables.
 */

#ifndef AUTOSCALE_SIM_BATCH_ENGINE_H_
#define AUTOSCALE_SIM_BATCH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "env/env_state.h"
#include "sim/cost_model_cache.h"
#include "sim/simulator.h"
#include "sim/target.h"

namespace autoscale::sim {

/** SoA gather/commit engine for batched serving (see file comment). */
class BatchDecisionEngine {
  public:
    /**
     * @param sim The simulator decisions execute on (must outlive the
     *        engine).
     * @param batchCapacity Slots reserved up front; gathers larger than
     *        this grow the arrays once and then stay allocation-free.
     */
    BatchDecisionEngine(const InferenceSimulator &sim,
                        std::size_t batchCapacity);

    // --- Gather phase (one call per tick, then one addSlot per ready
    // request). ---

    /** Start a new tick at @p clockMs: clears the slots (capacity is
     * retained) and snapshots the tick clock slack is computed from. */
    void beginTick(double clockMs);

    /**
     * Append one ready request. @p network must be the workload's
     * network; its CostModelCache entry is resolved here, once per
     * gather, instead of per simulator call during commit.
     */
    void addSlot(std::int64_t id, double arrivalMs, double deadlineMs,
                 int workloadIndex, const dnn::Network *network,
                 double minServiceMs);

    /** Gathered slot count for this tick. */
    std::size_t size() const { return ids_.size(); }

    /** Tick clock the current gather snapshot was taken at, ms. */
    double tickClockMs() const { return tickClockMs_; }

    // --- SoA slot accessors (i < size()). ---
    std::int64_t id(std::size_t i) const { return ids_[i]; }
    double arrivalMs(std::size_t i) const { return arrivalsMs_[i]; }
    double deadlineMs(std::size_t i) const { return deadlinesMs_[i]; }
    /** deadline - tick clock; negative means already late at gather. */
    double deadlineSlackMs(std::size_t i) const { return slacksMs_[i]; }
    int workloadIndex(std::size_t i) const { return workloadIndices_[i]; }
    const dnn::Network *network(std::size_t i) const
    {
        return networks_[i];
    }
    double minServiceMs(std::size_t i) const { return minServicesMs_[i]; }
    /** Prefetched cache entry (nullptr for non-zoo networks). */
    const CostModelCache::NetworkEntry *cacheEntry(std::size_t i) const
    {
        return cacheEntries_[i];
    }

    // --- Commit phase. ---

    /**
     * Start committing the next slot: invalidates the best-local-target
     * memo (each commit draws a fresh environment, so memoized targets
     * must never leak across requests).
     */
    void beginRequest();

    /**
     * Memoized InferenceSimulator::bestLocalTarget for the request
     * being committed. A commit needs this pure function up to three
     * times per request (degradation override, breaker short-circuit,
     * infeasible fallback) with identical arguments; the memo returns
     * the identical value without the recomputation.
     */
    const ExecutionTarget &bestLocalTarget(const dnn::Network &network,
                                           const env::EnvState &env,
                                           double accuracyTargetPct);

  private:
    const InferenceSimulator &sim_;
    double tickClockMs_ = 0.0;

    // SoA slot arrays (the arena; reserved once at construction).
    std::vector<std::int64_t> ids_;
    std::vector<double> arrivalsMs_;
    std::vector<double> deadlinesMs_;
    std::vector<double> slacksMs_;
    std::vector<int> workloadIndices_;
    std::vector<const dnn::Network *> networks_;
    std::vector<double> minServicesMs_;
    std::vector<const CostModelCache::NetworkEntry *> cacheEntries_;

    // Per-request best-local-target memo.
    const dnn::Network *memoNetwork_ = nullptr;
    double memoAccuracyTargetPct_ = 0.0;
    ExecutionTarget memoTarget_;
};

} // namespace autoscale::sim

#endif // AUTOSCALE_SIM_BATCH_ENGINE_H_
