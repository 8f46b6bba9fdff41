/**
 * @file
 * MetricsRegistry: named counters, gauges, and fixed-bucket histograms
 * for the observability layer.
 *
 * Concurrency/determinism contract (DESIGN.md §10): every mutator is
 * thread-safe, but deterministic aggregates come from structure, not
 * from locking. Integer counters commute, so a registry may be shared
 * across worker threads; histograms accumulate a floating-point sum
 * whose value depends on addition order, so each replicate/fold owns a
 * private registry and the parent merges them in index order
 * (`harness/parallel` style). Followed, `writeText` output is
 * byte-identical for every `--jobs` value.
 */

#ifndef AUTOSCALE_OBS_METRICS_REGISTRY_H_
#define AUTOSCALE_OBS_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace autoscale::obs {

/**
 * Lowercase [a-z0-9_.]-only metric-name fragment for @p text: runs of
 * other characters collapse to a single '_', with no leading or
 * trailing '_' (e.g. "Edge (CPU FP32)" -> "edge_cpu_fp32").
 */
std::string metricSlug(const std::string &text);

/**
 * One registry counter, addressable without a name lookup. Handles come
 * from MetricsRegistry::counter() and stay valid for the registry's
 * lifetime (map nodes are stable) until clear() drops every metric.
 * add() is lock-free; integer additions commute, so concurrent
 * increments stay deterministic in aggregate (DESIGN.md §10).
 */
class Counter {
  public:
    Counter() = default;
    Counter(const Counter &other)
        : value_(other.value_.load(std::memory_order_relaxed))
    {
    }
    Counter &
    operator=(const Counter &other)
    {
        value_.store(other.value_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        return *this;
    }

    void
    add(std::int64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** Default latency bucket bounds, ms (sub-ms to multi-second). */
inline constexpr std::array<double, 15> kLatencyBucketsMs = {
    0.5, 1, 2, 5, 10, 20, 33.3, 50, 75, 100, 150, 250, 500, 1000, 2500};

/** Default per-inference energy bucket bounds, mJ. */
inline constexpr std::array<double, 13> kEnergyBucketsMj = {
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};

/** Thread-safe, mergeable registry of counters, gauges, histograms. */
class MetricsRegistry {
  public:
    /** Point-in-time copy of one histogram. */
    struct HistogramSnapshot {
        /**
         * Inclusive bucket upper bounds, ascending; an implicit
         * overflow bucket follows the last bound. A sample lands in
         * the first bucket whose bound it does not exceed (Prometheus
         * `le` semantics: a sample equal to a bound belongs to that
         * bound's bucket).
         */
        std::vector<double> upperBounds;
        /** Per-bucket counts; size == upperBounds.size() + 1. */
        std::vector<std::int64_t> bucketCounts;
        std::int64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &other);
    MetricsRegistry &operator=(const MetricsRegistry &other);

    /** Add @p delta to counter @p name (creating it at zero). */
    void inc(const std::string &name, std::int64_t delta = 1);

    /**
     * Pre-resolved handle for counter @p name (created at zero when
     * absent). Hot paths resolve once and call Counter::add() with no
     * per-event map lookup; export order is unaffected because creation
     * still lands in the sorted name map.
     */
    Counter &counter(std::string_view name);

    /** Set gauge @p name to @p value (last write wins). */
    void set(const std::string &name, double value);

    /**
     * Declare histogram @p name with the given inclusive upper bounds
     * (must be non-empty and strictly ascending). Declaring an existing
     * histogram is a no-op so replicate-local registries can declare
     * unconditionally.
     */
    void declareHistogram(const std::string &name,
                          std::vector<double> upperBounds);

    /**
     * Record @p value into histogram @p name. An undeclared histogram
     * is auto-declared with defaultBuckets().
     */
    void observe(const std::string &name, double value);

    /** Counter value (0 when absent). */
    std::int64_t counterValue(const std::string &name) const;

    /** Gauge value (0.0 when absent). */
    double gauge(const std::string &name) const;

    /** Whether histogram @p name exists. */
    bool hasHistogram(const std::string &name) const;

    /** Snapshot of histogram @p name (empty snapshot when absent). */
    HistogramSnapshot histogram(const std::string &name) const;

    /**
     * Fold @p other into this registry: counters and histogram buckets
     * add; gauges take @p other's value when present; histogram sums
     * accumulate in call order (callers merge replicates in index
     * order to keep the result deterministic). Histograms of the same
     * name must share bucket bounds.
     */
    void merge(const MetricsRegistry &other);

    /**
     * Fold @p snapshot into histogram @p name exactly as merge() folds
     * one source histogram: created verbatim when absent, otherwise
     * bucket counts add, min/max widen (when the snapshot saw samples),
     * and count/sum accumulate in call order. Lets pooled per-device
     * recorders (serve/compact_metrics.h) flush without materializing a
     * registry per device.
     */
    void mergeHistogram(const std::string &name,
                        const HistogramSnapshot &snapshot);

    /** Drop every metric. */
    void clear();

    /** True when no counter, gauge, or histogram has been touched. */
    bool empty() const;

    /**
     * Deterministic text export (Prometheus-flavoured): sorted names,
     * to_chars-formatted numbers, one metric per line.
     */
    void writeText(std::ostream &os) const;

    /** kLatencyBucketsMs as a vector, for declareHistogram(). */
    static std::vector<double> latencyBucketsMs();

    /** kEnergyBucketsMj as a vector, for declareHistogram(). */
    static std::vector<double> energyBucketsMj();

    /** Default reward buckets (rewards are <= 0 at the mJ scale). */
    static std::vector<double> rewardBuckets();

    /** Generic decade buckets used for auto-declared histograms. */
    static std::vector<double> defaultBuckets();

  private:
    struct Histogram {
        std::vector<double> upperBounds;
        std::vector<std::int64_t> bucketCounts;
        std::int64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    void observeLocked(Histogram &histogram, double value);

    mutable std::mutex mutex_;
    // Node-based map: Counter& handles survive later insertions.
    // Heterogeneous std::less<> lets counter() probe by string_view.
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace autoscale::obs

#endif // AUTOSCALE_OBS_METRICS_REGISTRY_H_
