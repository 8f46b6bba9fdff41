#include "obs/metrics_registry.h"

#include <algorithm>
#include <cctype>
#include <ostream>

#include "obs/json.h"
#include "util/logging.h"

namespace autoscale::obs {

std::string
metricSlug(const std::string &text)
{
    std::string slug;
    slug.reserve(text.size());
    bool pending_separator = false;
    for (const char c : text) {
        const auto byte = static_cast<unsigned char>(c);
        if (std::isalnum(byte) != 0) {
            if (pending_separator && !slug.empty()) {
                slug += '_';
            }
            pending_separator = false;
            slug += static_cast<char>(std::tolower(byte));
        } else {
            pending_separator = true;
        }
    }
    return slug;
}

MetricsRegistry::MetricsRegistry(const MetricsRegistry &other)
{
    const std::lock_guard<std::mutex> lock(other.mutex_);
    counters_ = other.counters_;
    gauges_ = other.gauges_;
    histograms_ = other.histograms_;
}

MetricsRegistry &
MetricsRegistry::operator=(const MetricsRegistry &other)
{
    if (this == &other) {
        return *this;
    }
    // Consistent lock order via std::lock avoids deadlock if two
    // threads assign registries to each other.
    std::unique_lock<std::mutex> mine(mutex_, std::defer_lock);
    std::unique_lock<std::mutex> theirs(other.mutex_, std::defer_lock);
    std::lock(mine, theirs);
    counters_ = other.counters_;
    gauges_ = other.gauges_;
    histograms_ = other.histograms_;
    return *this;
}

void
MetricsRegistry::inc(const std::string &name, std::int64_t delta)
{
    counter(name).add(delta);
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
        return it->second;
    }
    return counters_.emplace(std::string(name), Counter()).first->second;
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::declareHistogram(const std::string &name,
                                  std::vector<double> upperBounds)
{
    AS_CHECK(!upperBounds.empty());
    AS_CHECK(std::is_sorted(upperBounds.begin(), upperBounds.end()));
    for (std::size_t i = 1; i < upperBounds.size(); ++i) {
        AS_CHECK(upperBounds[i - 1] < upperBounds[i]);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (histograms_.count(name) != 0) {
        return;
    }
    Histogram histogram;
    histogram.bucketCounts.assign(upperBounds.size() + 1, 0);
    histogram.upperBounds = std::move(upperBounds);
    histograms_.emplace(name, std::move(histogram));
}

void
MetricsRegistry::observeLocked(Histogram &histogram, double value)
{
    // First bucket whose inclusive upper bound admits the value; the
    // trailing overflow bucket catches the rest.
    const auto it = std::lower_bound(histogram.upperBounds.begin(),
                                     histogram.upperBounds.end(), value);
    const auto bucket = static_cast<std::size_t>(
        it - histogram.upperBounds.begin());
    ++histogram.bucketCounts[bucket];
    if (histogram.count == 0) {
        histogram.min = value;
        histogram.max = value;
    } else {
        histogram.min = std::min(histogram.min, value);
        histogram.max = std::max(histogram.max, value);
    }
    ++histogram.count;
    histogram.sum += value;
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        Histogram histogram;
        histogram.upperBounds = defaultBuckets();
        histogram.bucketCounts.assign(histogram.upperBounds.size() + 1, 0);
        it = histograms_.emplace(name, std::move(histogram)).first;
    }
    observeLocked(it->second, value);
}

std::int64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
MetricsRegistry::gauge(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

bool
MetricsRegistry::hasHistogram(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return histograms_.count(name) != 0;
}

MetricsRegistry::HistogramSnapshot
MetricsRegistry::histogram(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    HistogramSnapshot snapshot;
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        return snapshot;
    }
    snapshot.upperBounds = it->second.upperBounds;
    snapshot.bucketCounts = it->second.bucketCounts;
    snapshot.count = it->second.count;
    snapshot.sum = it->second.sum;
    snapshot.min = it->second.min;
    snapshot.max = it->second.max;
    return snapshot;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    // Snapshot the source first so self-merge and cross-thread merges
    // need no lock ordering discipline.
    const MetricsRegistry snapshot(other);
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, value] : snapshot.counters_) {
        counters_[name].add(value.value());
    }
    for (const auto &[name, value] : snapshot.gauges_) {
        gauges_[name] = value;
    }
    for (const auto &[name, theirs] : snapshot.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            histograms_.emplace(name, theirs);
            continue;
        }
        Histogram &mine = it->second;
        AS_CHECK(mine.upperBounds == theirs.upperBounds);
        for (std::size_t i = 0; i < mine.bucketCounts.size(); ++i) {
            mine.bucketCounts[i] += theirs.bucketCounts[i];
        }
        if (theirs.count > 0) {
            if (mine.count == 0) {
                mine.min = theirs.min;
                mine.max = theirs.max;
            } else {
                mine.min = std::min(mine.min, theirs.min);
                mine.max = std::max(mine.max, theirs.max);
            }
        }
        mine.count += theirs.count;
        mine.sum += theirs.sum;
    }
}

void
MetricsRegistry::mergeHistogram(const std::string &name,
                                const HistogramSnapshot &snapshot)
{
    AS_CHECK(snapshot.bucketCounts.size()
             == snapshot.upperBounds.size() + 1);
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        Histogram histogram;
        histogram.upperBounds = snapshot.upperBounds;
        histogram.bucketCounts = snapshot.bucketCounts;
        histogram.count = snapshot.count;
        histogram.sum = snapshot.sum;
        histogram.min = snapshot.min;
        histogram.max = snapshot.max;
        histograms_.emplace(name, std::move(histogram));
        return;
    }
    Histogram &mine = it->second;
    AS_CHECK(mine.upperBounds == snapshot.upperBounds);
    for (std::size_t i = 0; i < mine.bucketCounts.size(); ++i) {
        mine.bucketCounts[i] += snapshot.bucketCounts[i];
    }
    if (snapshot.count > 0) {
        if (mine.count == 0) {
            mine.min = snapshot.min;
            mine.max = snapshot.max;
        } else {
            mine.min = std::min(mine.min, snapshot.min);
            mine.max = std::max(mine.max, snapshot.max);
        }
    }
    mine.count += snapshot.count;
    mine.sum += snapshot.sum;
}

void
MetricsRegistry::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

bool
MetricsRegistry::empty() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
MetricsRegistry::writeText(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, value] : counters_) {
        os << "counter " << name << ' ' << value.value() << '\n';
    }
    for (const auto &[name, value] : gauges_) {
        os << "gauge " << name << ' ' << jsonNumber(value) << '\n';
    }
    for (const auto &[name, histogram] : histograms_) {
        os << "histogram " << name << " count " << histogram.count
           << " sum " << jsonNumber(histogram.sum) << " min "
           << jsonNumber(histogram.count > 0 ? histogram.min : 0.0)
           << " max "
           << jsonNumber(histogram.count > 0 ? histogram.max : 0.0)
           << '\n';
        for (std::size_t i = 0; i < histogram.upperBounds.size(); ++i) {
            os << "histogram " << name << " le "
               << jsonNumber(histogram.upperBounds[i]) << ' '
               << histogram.bucketCounts[i] << '\n';
        }
        os << "histogram " << name << " le +inf "
           << histogram.bucketCounts.back() << '\n';
    }
}

std::vector<double>
MetricsRegistry::latencyBucketsMs()
{
    return {kLatencyBucketsMs.begin(), kLatencyBucketsMs.end()};
}

std::vector<double>
MetricsRegistry::energyBucketsMj()
{
    return {kEnergyBucketsMj.begin(), kEnergyBucketsMj.end()};
}

std::vector<double>
MetricsRegistry::rewardBuckets()
{
    // Rewards are negative energy-scaled values with a large QoS
    // penalty tail; cover both the near-zero and the penalized range.
    return {-1000, -500, -200, -100, -50, -20, -10, -5, -2, -1, -0.5,
            -0.1, 0};
}

std::vector<double>
MetricsRegistry::defaultBuckets()
{
    return {0.001, 0.01, 0.1, 1, 10, 100, 1000, 10000};
}

} // namespace autoscale::obs
