/**
 * @file
 * One serving device (DESIGN.md §12, §15, §18).
 *
 * A million-device fleet cannot afford one heap-allocated pimpl, one
 * copy of the serving configuration, and one resolved workload table
 * per device. The serving loop is therefore split into:
 *
 *  - `DevicePlan` — everything that is identical across a fleet's
 *    devices and immutable for the whole run: the simulator reference,
 *    the resolved ServeConfig template, the workload mix with its
 *    admission floors, and the nominal service time. A fleet builds
 *    one plan for device 0 (which carries the Q-table provenance) and
 *    one that every peer points at; `runServe` builds one on its stack.
 *
 *  - `DeviceState` — the per-device mutable replay state, laid out as
 *    a flat movable struct so a fleet can hold `std::vector<DeviceState>`
 *    (one contiguous table fill, no per-device pimpl allocation).
 *    Everything a device's trajectory depends on lives here: the
 *    virtual clock, the RNG streams, the admission ring, breaker
 *    states, counters, and the policy.
 *
 * The loop is *epoch-sliceable*: `advance(untilMs, shared, epoch)`
 * runs the serving loop but pauses at the virtual-time barrier
 * `untilMs`, optionally applying a frozen contention snapshot to remote
 * service times. `runServe` is one `advance(+inf, nullptr, 0)`. With a
 * neutral snapshot (edgeQueueMs == 0.0, wifiDerate == 1.0, no brownout)
 * the applied arithmetic consists of IEEE-754 identities, so a fleet of
 * one device is bit-identical to `runServe` as well (tests/test_fleet
 * pins both).
 *
 * Every device records metrics into one dense CompactServeMetrics
 * block and decision events into a trace buffer it may share with
 * other devices; the owner flushes both in device-index order once the
 * run is over, so exported bytes never depend on shards or jobs.
 */

#ifndef AUTOSCALE_SERVE_DEVICE_STATE_H_
#define AUTOSCALE_SERVE_DEVICE_STATE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/policy.h"
#include "serve/server.h"
#include "serve/shared_infra.h"

namespace autoscale::core {
class AutoScaleScheduler;
} // namespace autoscale::core

namespace autoscale::harness {
class AutoScalePolicy;
} // namespace autoscale::harness

namespace autoscale::sim {
class BatchDecisionEngine;
} // namespace autoscale::sim

namespace autoscale::serve {

class CompactServeMetrics;

/** One zoo workload the serving mix can draw. */
struct Workload {
    const dnn::Network *network = nullptr;
    sim::InferenceRequest request;
    /** Best-case service time (admission floor), ms. */
    double minServiceMs = 0.0;
};

/**
 * Dense serve-outcome ids: array indices for the metrics block (the
 * string names feed trace events and the flushed counter names).
 */
enum ServeOutcomeId : int {
    kServed = 0,
    kShedOverflow,
    kShedDeadline,
    kShedStale,
    kShedChurn,
    kNumServeOutcomes,
};

constexpr std::array<const char *, kNumServeOutcomes> kServeOutcomeNames =
    {"served", "shed_overflow", "shed_deadline", "shed_stale",
     "shed_churn"};

/**
 * The run-immutable part of a serving device, shared across a whole
 * fleet: built once, read by every device, never written after
 * construction. The seed field of `config` is a template value —
 * each device's actual seed is passed to its DeviceState explicitly.
 */
struct DevicePlan {
    const sim::InferenceSimulator *sim = nullptr;
    ServeConfig config;
    std::vector<const dnn::Network *> networks;
    std::vector<Workload> workloads;
    /** Mean best-case service time (initial EWMA estimate), ms. */
    double nominalServiceMs = 0.0;
};

/**
 * Resolve the workload mix, admission floors, and nominal service
 * time for @p config (fatal on an unknown --network filter). Pure:
 * consumes no RNG stream.
 */
DevicePlan makeDevicePlan(const sim::InferenceSimulator &sim,
                          const ServeConfig &config);

/**
 * One device's complete mutable serving state and its serving loop.
 * The state is public: this is an internal serve-layer type driven by
 * `runServe` and `runFleet`; the loop's helper steps are private.
 */
struct DeviceState {
    /**
     * @param plan Immutable plan (outlives the device); its config
     *        decides policy, Q-table provenance and loop knobs.
     * @param trace Decision-event sink (null: no events are built).
     * @param metrics Metrics block (null: no metrics are recorded).
     * @param deviceId Fleet device index; -1 means "not a fleet
     *        member": no fleet fields on trace events.
     * @param seed Master seed of this device's RNG fan-out.
     * @param warmStart Non-null: skip this device's own Q-table
     *        provenance (checkpoint/--qtable/pre-training) and seed the
     *        learner from an already-trained scheduler instead (fleet
     *        peers copy device 0's table). Ignored for fixed policies.
     * @param engine Batch decision engine (outlives the device). Its
     *        gather state is per tick and the devices of one shard run
     *        sequentially, so a shard's devices share one.
     */
    DeviceState(const DevicePlan &plan, obs::TraceRecorder *trace,
                CompactServeMetrics *metrics, int deviceId,
                std::uint64_t seed,
                const core::AutoScaleScheduler *warmStart,
                sim::BatchDecisionEngine &engine);

    const ServeConfig &config() const { return plan->config; }
    const sim::InferenceSimulator &sim() const { return *plan->sim; }

    /**
     * Run the serving loop until the virtual clock reaches @p untilMs
     * (or the run completes). @p shared is the frozen contention
     * snapshot for this epoch (nullptr = uncontended single-device
     * semantics); @p atEpoch is recorded on fleet trace events.
     */
    void advance(double untilMs, const SharedSnapshot *shared,
                 std::int64_t atEpoch);

    /** Whether every arrival has been admitted and drained. */
    bool done() const { return loopDone; }

    /**
     * Non-destructive digest of the loop's replay-relevant state
     * (virtual clock, arrival/serve counters, energy, queue depth) for
     * the fleet checkpoint manifest's barrier verification. Stable
     * across shard layouts; changes on any trajectory divergence.
     */
    std::uint64_t stateDigest() const;

    /**
     * Churn (DESIGN.md §17): the device crashed at an epoch barrier.
     * Discards every queued request as `shed_churn` and drops the
     * learner's pending Q-update (the in-flight transition dies with
     * the process). Returns the number of requests discarded.
     */
    std::int64_t churnCrash(std::int64_t atEpoch);

    /**
     * Churn: the device left gracefully at an epoch barrier. Discards
     * the queue as `shed_churn` (users are routed elsewhere) but
     * flushes the pending Q-update terminally, like a clean shutdown.
     * Returns the number of requests discarded.
     */
    std::int64_t churnLeave(std::int64_t atEpoch);

    /**
     * Churn: advance an offline device to the barrier @p untilMs. Every
     * arrival in the window is drawn (keeping the workload stream in
     * lockstep with fleet virtual time) but lost as `shed_churn`, and
     * the virtual clock jumps to the barrier. Returns arrivals lost.
     */
    std::int64_t advanceOffline(double untilMs, std::int64_t atEpoch);

    /** Contention-relevant usage since the last take (resets). */
    EpochUsage takeEpochUsage();

    /**
     * The learner's scheduler (nullptr for fixed baseline policies).
     * The fleet uses it for warm starts and barrier Q-table merges;
     * merges must only happen at epoch barriers, never mid-advance.
     */
    core::AutoScaleScheduler *scheduler() const;

    /**
     * Finalize the run (pending Q-update flush, breaker finalization,
     * final checkpoint, closing metrics) and return the stats. Must be
     * called exactly once, after done().
     */
    ServeStats finish();

    /** Shared immutable plan. */
    const DevicePlan *plan = nullptr;

    obs::TraceRecorder *trace = nullptr;
    CompactServeMetrics *metrics = nullptr;
    int deviceId = -1;

    ServeStats stats;

    Rng envRng;
    Rng decisionRng;
    Rng execRng;
    Rng workloadRng;

    baselines::SchedulingPolicy *policy = nullptr;
    std::unique_ptr<baselines::SchedulingPolicy> ownedPolicy;
    harness::AutoScalePolicy *learner = nullptr;
    std::unique_ptr<CheckpointManager> manager;
    std::int64_t startStep = 0;

    std::optional<env::Scenario> scenario;
    std::optional<ArrivalProcess> arrivals;
    std::optional<AdmissionQueue> queue;
    std::optional<CircuitBreaker> wlanBreaker;
    std::optional<CircuitBreaker> p2pBreaker;
    fault::RetryPolicy probeRetry;

    sim::BatchDecisionEngine *engine = nullptr;

    double clockMs = 0.0;
    double ewmaServiceMs = 0.0;
    double pendingArrivalMs = 0.0;
    bool arrivalsDone = false;
    bool loopDone = false;
    bool finished = false;

    /** Served-request decision mix, folded into stats at finish(). */
    std::array<std::int64_t, sim::kNumTargetCategories> categoryTally{};

    // --- Fleet hooks (inert outside fleet mode). ---
    /** Frozen contention snapshot for the current advance() slice. */
    const SharedSnapshot *shared = nullptr;
    /** Fleet epoch index recorded on trace events. */
    std::int64_t epoch = 0;
    EpochUsage usage;

  private:
    std::int64_t discardQueue(std::int64_t atEpoch);
    void admitUpTo(double nowMs);
    void recordShed(const Workload &workload, ServeOutcomeId outcome,
                    int depth);
    void commitRequest(const QueuedRequest &queued, int degradeLevel,
                       int depthAtDequeue);
    void checkpointNow();
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_DEVICE_STATE_H_
