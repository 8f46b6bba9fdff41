#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "dnn/network.h"
#include "serve/compact_metrics.h"
#include "serve/device_state.h"
#include "sim/batch_engine.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/table.h"

namespace autoscale::serve {

double
ServeStats::latencyPercentileMs(double percentile) const
{
    // Shared nearest-rank helper: one nth_element selection instead of
    // fully sorting a copy of every recorded latency per report line.
    return percentileNearestRank(latenciesMs, percentile);
}

double
ServeStats::meanWaitMs() const
{
    return served > 0 ? totalWaitMs / static_cast<double>(served) : 0.0;
}

double
ServeStats::meanServiceMs() const
{
    return served > 0 ? totalServiceMs / static_cast<double>(served) : 0.0;
}

std::vector<double>
minServiceMsPerNetwork(const sim::InferenceSimulator &sim,
                       const std::vector<const dnn::Network *> &networks,
                       double accuracyTargetPct)
{
    const env::EnvState clean;
    std::vector<double> floors;
    floors.reserve(networks.size());
    for (const dnn::Network *network : networks) {
        const sim::ExecutionTarget target =
            sim.bestLocalTarget(*network, clean, accuracyTargetPct);
        floors.push_back(sim.expected(*network, target, clean).latencyMs);
    }
    return floors;
}

double
nominalServiceMs(const sim::InferenceSimulator &sim,
                 const std::vector<const dnn::Network *> &networks,
                 double accuracyTargetPct)
{
    AS_CHECK(!networks.empty());
    const std::vector<double> floors =
        minServiceMsPerNetwork(sim, networks, accuracyTargetPct);
    double sum = 0.0;
    for (const double floor : floors) {
        sum += floor;
    }
    return sum / static_cast<double>(floors.size());
}

ServeStats
runServe(const sim::InferenceSimulator &sim, const ServeConfig &config,
         const obs::ObsContext &obs)
{
    // The whole serving loop lives in DeviceState (device_state.cc) so
    // a fleet can drive many of them; one full-run advance with no
    // contention snapshot serves the whole run.
    const DevicePlan plan = makeDevicePlan(sim, config);
    sim::BatchDecisionEngine engine(
        sim, static_cast<std::size_t>(config.batchSize));
    CompactServeMetrics metrics;
    DeviceState device(plan, obs.tracing() ? obs.trace : nullptr,
                       obs.metering() ? &metrics : nullptr, -1,
                       config.seed, nullptr, engine);
    device.advance(std::numeric_limits<double>::infinity(), nullptr, 0);
    AS_CHECK(device.done());
    ServeStats stats = device.finish();
    if (obs.metering()) {
        metrics.flush(*obs.metrics);
    }
    return stats;
}

void
printServeReport(std::ostream &os, const ServeConfig &config,
                 const ServeStats &stats)
{
    printBanner(os, "Serving summary");
    {
        Table table({"metric", "value"});
        const double arrivals = static_cast<double>(
            std::max<std::int64_t>(1, stats.arrivals));
        table.addRow({"arrivals", std::to_string(stats.arrivals)});
        table.addRow({"served",
                      std::to_string(stats.served) + " ("
                          + Table::pct(static_cast<double>(stats.served)
                                       / arrivals)
                          + ")"});
        table.addRow({"degraded", std::to_string(stats.degraded)});
        table.addRow({"shed (deadline)",
                      std::to_string(stats.shedDeadline)});
        table.addRow({"shed (overflow)",
                      std::to_string(stats.shedOverflow)});
        table.addRow({"shed (stale)", std::to_string(stats.shedStale)});
        table.addRow({"max queue depth",
                      std::to_string(stats.maxQueueDepth)});
        table.addRow({"p50 latency (ms)",
                      Table::num(stats.latencyPercentileMs(50.0))});
        table.addRow({"p99 latency (ms)",
                      Table::num(stats.latencyPercentileMs(99.0))});
        table.addRow({"mean wait (ms)", Table::num(stats.meanWaitMs())});
        table.addRow({"mean service (ms)",
                      Table::num(stats.meanServiceMs())});
        table.addRow({"QoS violations (served)",
                      std::to_string(stats.qosViolations)});
        table.addRow({"accuracy violations",
                      std::to_string(stats.accuracyViolations)});
        table.addRow({"energy (J)", Table::num(stats.energyJ, 3)});
        table.addRow({"wasted energy (J)",
                      Table::num(stats.wastedEnergyJ, 3)});
        table.addRow({"retry fallbacks",
                      std::to_string(stats.faultFallbacks)});
        table.addRow({"virtual time (s)",
                      Table::num(stats.endClockMs / 1e3, 2)});
        table.print(os);
    }

    if (!stats.categoryCounts.empty()) {
        printBanner(os, "Served decision mix");
        Table table({"category", "count", "share"});
        for (const auto &[category, count] : stats.categoryCounts) {
            table.addRow({category, std::to_string(count),
                          Table::pct(static_cast<double>(count)
                                     / static_cast<double>(stats.served))});
        }
        table.print(os);
    }

    if (stats.breakerEnabled) {
        printBanner(os, "Circuit breakers");
        Table table({"link", "opens", "short-circuits", "probes",
                     "open time (s)"});
        table.addRow({"wlan (cloud)",
                      std::to_string(stats.wlanBreaker.opens),
                      std::to_string(stats.wlanBreaker.shortCircuits),
                      std::to_string(stats.wlanBreaker.probes),
                      Table::num(stats.wlanBreaker.totalOpenMs / 1e3)});
        table.addRow({"p2p (edge)",
                      std::to_string(stats.p2pBreaker.opens),
                      std::to_string(stats.p2pBreaker.shortCircuits),
                      std::to_string(stats.p2pBreaker.probes),
                      Table::num(stats.p2pBreaker.totalOpenMs / 1e3)});
        table.print(os);
    }

    if (!config.checkpointPath.empty()) {
        printBanner(os, "Checkpointing");
        Table table({"metric", "value"});
        table.addRow({"path", config.checkpointPath});
        table.addRow({"written",
                      std::to_string(stats.checkpointsWritten)});
        if (config.resume) {
            table.addRow({"recovered",
                          stats.resumed
                              ? std::string("yes (")
                                  + checkpointSourceName(stats.resumeSource)
                                  + ", step "
                                  + std::to_string(stats.resumeStep) + ")"
                              : std::string("no (cold start)")});
            table.addRow({"corrupt checkpoints detected",
                          std::to_string(stats.corruptCheckpoints)});
        }
        table.print(os);
    }
}

} // namespace autoscale::serve
