/**
 * @file
 * CompactServeMetrics: the allocation-free metrics block every serving
 * device records into (DESIGN.md §18).
 *
 * A MetricsRegistry per device would cost three node-based maps, a
 * mutex, and per-metric string keys — kilobytes per device before the
 * first sample — and a shared registry would take its mutex on every
 * histogram sample. This block records the serve-loop metric set into
 * fixed-size arrays, and `flush()` folds it into a registry with
 * MetricsRegistry::merge() semantics:
 *
 *  - counters add; an outcome or decision counter exports only once it
 *    was hit, so the metric-name set depends only on what happened;
 *  - gauges last-write-wins in flush order (== device-index order);
 *  - histogram sums are left-folded per device in observation order and
 *    then across devices in flush order.
 *
 * Flushing every device block in device-index order therefore yields a
 * metrics export independent of shards and jobs (tests/test_fleet and
 * the fleet goldens pin it).
 */

#ifndef AUTOSCALE_SERVE_COMPACT_METRICS_H_
#define AUTOSCALE_SERVE_COMPACT_METRICS_H_

#include <array>
#include <cstdint>

#include "obs/metrics_registry.h"
#include "serve/device_state.h"
#include "sim/target.h"

namespace autoscale::serve {

/** serve.queue_depth bucket bounds. */
inline constexpr std::array<double, 9> kQueueDepthBuckets = {
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};

/** serve.fleet.congestion_derate bucket bounds. */
inline constexpr std::array<double, 8> kDerateBuckets = {
    0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};

/**
 * Fixed-capacity histogram accumulator: bucket counts plus the
 * order-sensitive (count, sum, min, max) fold, bit-identical to
 * MetricsRegistry's histogram for the same observation sequence.
 * Bucket bounds live in one shared table (they are identical for
 * every device), not in the block.
 */
template <std::size_t NumBounds>
struct CompactHistogram {
    std::array<std::int64_t, NumBounds + 1> buckets{};
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void
    observe(const std::array<double, NumBounds> &bounds, double value)
    {
        // First bucket whose inclusive upper bound admits the value;
        // the trailing overflow bucket catches the rest (identical to
        // MetricsRegistry::observeLocked).
        std::size_t bucket = 0;
        while (bucket < NumBounds && bounds[bucket] < value) {
            ++bucket;
        }
        ++buckets[bucket];
        if (count == 0) {
            min = value;
            max = value;
        } else {
            min = value < min ? value : min;
            max = value > max ? value : max;
        }
        ++count;
        sum += value;
    }
};

/** One serving device's complete serve-metrics state. */
class CompactServeMetrics {
  public:
    void recordShed(ServeOutcomeId outcome, int depth);

    void recordServed(sim::TargetCategoryId category, bool qosViolated,
                      bool degraded, bool shortCircuit, bool faultFallback,
                      double waitMs, double latencyMs, double energyMj,
                      int depth);

    /** serve.fleet.* contention series: the three names export
     * together, and only once a request touched shared infrastructure,
     * so an uncontended run exports the single-device name set. */
    void observeEdgeWait(double waitMs);
    void observeCloud(double derate, bool brownoutHit);

    /** One checkpoint written (serve.checkpoints). */
    void recordCheckpoint();

    /** The end-of-run counter/gauge block of DeviceState::finish. */
    void recordFinish(std::int64_t arrivals, std::int64_t breakerOpens,
                      std::int64_t breakerProbes, double maxQueueDepth,
                      double breakerOpenMs);

    /**
     * Fold this block into @p parent with MetricsRegistry::merge
     * semantics. Call once per device, in device-index order.
     */
    void flush(obs::MetricsRegistry &parent) const;

  private:
    // Counter values. The five "eager" counters (qos_violations,
    // degraded, breaker.short_circuits, fault.fallbacks, checkpoints)
    // always export, even at zero; outcome/decision counters export
    // only once hit.
    std::int64_t qosViolations_ = 0;
    std::int64_t degraded_ = 0;
    std::int64_t breakerShortCircuits_ = 0;
    std::int64_t faultFallbacks_ = 0;
    std::int64_t checkpoints_ = 0;
    std::array<std::int64_t, kNumServeOutcomes> outcomeCounts_{};
    std::array<std::int64_t, sim::kNumTargetCategories> decisionCounts_{};

    // serve.* histograms (always exported, even empty).
    CompactHistogram<obs::kLatencyBucketsMs.size()> latencyMs_;
    CompactHistogram<obs::kLatencyBucketsMs.size()> waitMs_;
    CompactHistogram<obs::kEnergyBucketsMj.size()> energyMj_;
    CompactHistogram<kQueueDepthBuckets.size()> queueDepth_;

    // serve.fleet.* series (exported once touched).
    bool fleetResolved_ = false;
    std::int64_t brownoutServed_ = 0;
    CompactHistogram<obs::kLatencyBucketsMs.size()> edgeWaitMs_;
    CompactHistogram<kDerateBuckets.size()> congestionDerate_;

    // End-of-run block (recorded by DeviceState::finish exactly once).
    bool finishRecorded_ = false;
    std::int64_t arrivals_ = 0;
    std::int64_t breakerOpens_ = 0;
    std::int64_t breakerProbes_ = 0;
    double maxQueueDepth_ = 0.0;
    double breakerOpenMs_ = 0.0;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_COMPACT_METRICS_H_
