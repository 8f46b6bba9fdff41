#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "dnn/model_zoo.h"
#include "platform/device_zoo.h"
#include "util/format.h"

namespace autoscale::scenario {

namespace {

/** Largest integer exactly representable in the Number payload. */
constexpr double kMaxExactInt = 9007199254740992.0; // 2^53

/** Section names and per-section key order — the canonical order. */
struct SectionSchema {
    const char *name;
    bool repeatable;
    std::vector<const char *> keys;
};

const std::vector<SectionSchema> &
schema()
{
    static const std::vector<SectionSchema> kSchema = {
        {"meta", false, {"name", "description", "seed"}},
        {"device", false, {"model", "population"}},
        {"workload", false,
         {"network", "requests", "train_runs", "accuracy_target_pct"}},
        {"env", false, {"base"}},
        {"arrival", false,
         {"rate_x", "rate_rps", "burst_period_ms", "burst_ms",
          "burst_mult", "diurnal_period_ms", "diurnal_amplitude"}},
        {"qos", false, {"queue_depth", "degrade_depth"}},
        {"retry", false,
         {"timeout_ms", "max_retries", "backoff_ms", "backoff_mult"}},
        {"fault", false,
         {"seed", "brownout_start", "brownout_duration", "brownout_period",
          "brownout_slowdown", "brownout_down_prob", "throttle_factor",
          "throttle_prob", "transfer_drop_prob"}},
        {"fault.blackout", true,
         {"start", "duration", "period", "wlan", "p2p"}},
        {"fault.fade", true, {"wlan", "drop_db", "probability"}},
        {"mobility.segment", true,
         {"start", "duration", "period", "wlan", "attenuation_db"}},
        {"interference.segment", true,
         {"start", "duration", "period", "co_cpu", "co_mem"}},
        {"fleet", false, {"epoch_ms", "q_mode", "merge_epochs"}},
        {"infra", false,
         {"edge_capacity", "wifi_capacity", "contention",
          "brownout_period_ms", "brownout_ms", "brownout_slowdown",
          "outage_period_ms", "outage_ms"}},
        {"churn", false,
         {"crash_prob", "leave_prob", "down_epochs", "initial_devices",
          "join_every_epochs"}},
        // [variant] keys are free-form axis paths; file order is
        // meaningful and preserved (see variants.h).
        {"variant", false, {}},
    };
    return kSchema;
}

const SectionSchema *
findSectionSchema(const std::string &name)
{
    for (const SectionSchema &section : schema()) {
        if (name == section.name) {
            return &section;
        }
    }
    return nullptr;
}

const char *
kindName(Value::Kind kind)
{
    switch (kind) {
      case Value::Kind::String: return "a string";
      case Value::Kind::Number: return "a number";
      case Value::Kind::Bool: return "a boolean";
      case Value::Kind::List: return "a list";
    }
    return "a value";
}

/**
 * Typed accessor over one section's entries. Reports duplicate and
 * unknown keys once per section, and records every successfully read
 * key into the spec's explicit-key set under "section.key".
 */
class Binder {
  public:
    Binder(const Section &section, const std::string &file,
           const SectionSchema &sectionSchema, Diagnostics &diags,
           std::set<std::string> *explicitKeys)
        : section_(section), file_(file), diags_(diags),
          explicit_(explicitKeys)
    {
        // Duplicate keys are never accepted: last-one-wins in a
        // replayable artifact silently changes the run.
        std::map<std::string, int> first_line;
        for (const Entry &entry : section_.entries) {
            const auto [it, inserted] =
                first_line.emplace(entry.key, entry.line);
            if (!inserted) {
                diags_.error(file_, entry.line,
                             "duplicate key '" + entry.key + "' in ["
                                 + section_.name + "] (first at line "
                                 + std::to_string(it->second) + ")");
            }
        }
        for (const Entry &entry : section_.entries) {
            bool known = false;
            for (const char *key : sectionSchema.keys) {
                if (entry.key == key) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                diags_.error(file_, entry.line,
                             "unknown key '" + entry.key + "' in ["
                                 + section_.name + "]");
            }
        }
    }

    /** Dotted path of @p key for messages and the explicit-key set. */
    std::string
    path(const char *key) const
    {
        return section_.name + std::string(".") + key;
    }

    bool
    number(const char *key, double *out)
    {
        const Entry *entry = typed(key, Value::Kind::Number, "a number");
        if (entry == nullptr) {
            return false;
        }
        if (!std::isfinite(entry->value.num)) {
            diags_.error(file_, entry->line,
                         path(key) + " must be finite");
            return false;
        }
        *out = entry->value.num;
        mark(key);
        return true;
    }

    bool
    integer(const char *key, std::int64_t *out)
    {
        const Entry *entry = section_.find(key);
        if (entry == nullptr) {
            return false;
        }
        double value = 0.0;
        if (!number(key, &value)) {
            return false;
        }
        if (value != std::floor(value) || std::fabs(value) > kMaxExactInt) {
            diags_.error(file_, entry->line,
                         path(key) + " must be an integer, got "
                             + formatDouble(value));
            return false;
        }
        *out = static_cast<std::int64_t>(value);
        return true;
    }

    bool
    boolean(const char *key, bool *out)
    {
        const Entry *entry = typed(key, Value::Kind::Bool, "true or false");
        if (entry != nullptr) {
            *out = entry->value.boolean;
            mark(key);
        }
        return entry != nullptr;
    }

    bool
    string(const char *key, std::string *out)
    {
        const Entry *entry =
            typed(key, Value::Kind::String, "a quoted string");
        if (entry != nullptr) {
            *out = entry->value.str;
            mark(key);
        }
        return entry != nullptr;
    }

    /** Line of the entry most recently read (for range messages). */
    int
    line(const char *key) const
    {
        const Entry *entry = section_.find(key);
        return entry != nullptr ? entry->line : section_.line;
    }

    bool has(const char *key) const { return section_.find(key) != nullptr; }

    void
    fail(const char *key, const std::string &constraint, double got)
    {
        diags_.error(file_, line(key),
                     path(key) + " must be " + constraint + ", got "
                         + formatDouble(got));
    }

    /**
     * A required @p key did not bind: report it if absent. Always
     * false, so `checkedNumber(...) || binder.required(key)` is the
     * key's validity.
     */
    bool
    required(const char *key)
    {
        if (!has(key)) {
            diags_.error(file_, section_.line, path(key) + " is required");
        }
        return false;
    }

    /** Free-form "<path> <message>" diagnostic at @p key's line. */
    void
    failText(const char *key, const std::string &message)
    {
        diags_.error(file_, line(key), path(key) + " " + message);
    }

    /** Error at @p key's line whose @p message names its keys itself. */
    void
    failAt(const char *key, const std::string &message)
    {
        diags_.error(file_, line(key), message);
    }

  private:
    /** @p key's entry if present and of @p kind, else null. */
    const Entry *
    typed(const char *key, Value::Kind kind, const char *expected)
    {
        const Entry *entry = section_.find(key);
        if (entry != nullptr && entry->value.kind != kind) {
            diags_.error(file_, entry->line,
                         path(key) + " must be " + expected + ", got "
                             + kindName(entry->value.kind));
            return nullptr;
        }
        return entry;
    }

    void
    mark(const char *key)
    {
        if (explicit_ != nullptr) {
            explicit_->insert(path(key));
        }
    }

    const Section &section_;
    const std::string &file_;
    Diagnostics &diags_;
    std::set<std::string> *explicit_;
};

/** number + range check in one call; true iff present and valid. */
bool
checkedNumber(Binder &binder, const char *key, double lo, double hi,
              const char *constraint, double *out)
{
    double value = 0.0;
    if (!binder.number(key, &value)) {
        return false;
    }
    if (value < lo || value > hi) {
        binder.fail(key, constraint, value);
        return false;
    }
    *out = value;
    return true;
}

template <typename Int>
bool
checkedInteger(Binder &binder, const char *key, std::int64_t lo,
               std::int64_t hi, const char *constraint, Int *out)
{
    std::int64_t value = 0;
    if (!binder.integer(key, &value)) {
        return false;
    }
    if (value < lo || value > hi) {
        binder.fail(key, constraint, static_cast<double>(value));
        return false;
    }
    *out = static_cast<Int>(value);
    return true;
}

/**
 * A step window from the `<prefix>start/duration/period` keys; true
 * iff valid. A @p required window must set its duration.
 */
bool
bindWindow(Binder &binder, const std::string &prefix, bool required,
           fault::StepWindow *window)
{
    const std::string start = prefix + "start";
    const std::string duration = prefix + "duration";
    const std::string period = prefix + "period";
    bool ok = checkedInteger(binder, start.c_str(), 0, 1000000000, ">= 0",
                             &window->startStep)
        || !binder.has(start.c_str());
    if (!checkedInteger(binder, duration.c_str(), 1, 1000000000,
                        ">= 1 (a zero-duration window never fires)",
                        &window->durationSteps)) {
        // A required window without a duration is dead.
        ok = ok
            && (required ? binder.required(duration.c_str())
                         : !binder.has(duration.c_str()));
    }
    ok = (checkedInteger(binder, period.c_str(), 0, 1000000000, ">= 0",
                         &window->periodSteps)
          || !binder.has(period.c_str()))
        && ok;
    if (ok && window->periodSteps > 0
        && window->durationSteps > window->periodSteps) {
        binder.fail(duration.c_str(), "<= " + binder.path(period.c_str()),
                    static_cast<double>(window->durationSteps));
        ok = false;
    }
    return ok;
}

env::ScenarioId
parseEnvBase(const std::string &name, int line, const std::string &file,
             Diagnostics &diags, bool *ok)
{
    for (const env::ScenarioId id : env::allScenarios()) {
        if (name == env::scenarioName(id)) {
            return id;
        }
    }
    diags.error(file, line,
                "env.base '" + name
                    + "' is not a Table IV scenario (use S1-S5, D1-D4)");
    *ok = false;
    return env::ScenarioId::D3;
}

void
bindMeta(Binder &binder, ScenarioSpec &spec)
{
    std::string text;
    if (binder.string("name", &text)) {
        if (text.empty()) {
            binder.failText("name", "must be non-empty");
        } else {
            spec.name = text;
        }
    }
    binder.string("description", &spec.description);
    checkedInteger(binder, "seed", 0, 9007199254740992, ">= 0", &spec.seed);
}

void
bindDevice(Binder &binder, ScenarioSpec &spec)
{
    std::string model;
    if (binder.string("model", &model)) {
        const std::vector<std::string> names = platform::phoneNames();
        if (std::find(names.begin(), names.end(), model) == names.end()) {
            std::string known;
            for (const std::string &name : names) {
                if (!known.empty()) {
                    known += ", ";
                }
                known += name;
            }
            binder.failText("model", "must be one of {" + known
                                         + "}, got \"" + model + "\"");
        } else {
            spec.deviceModel = model;
        }
    }
    checkedInteger(binder, "population", 1, 1000000, "within [1, 1000000]",
                   &spec.population);
}

void
bindWorkload(Binder &binder, ScenarioSpec &spec)
{
    std::string network;
    if (binder.string("network", &network) && !network.empty()) {
        bool known = false;
        for (const auto &net : dnn::modelZoo()) {
            if (net.name() == network) {
                known = true;
                break;
            }
        }
        if (!known) {
            binder.failText("network",
                            "must be a model-zoo network name or \"\", "
                            "got \"" + network + "\"");
        } else {
            spec.network = network;
        }
    }
    checkedInteger(binder, "requests", 1, 1000000000, "within [1, 1e9]",
                   &spec.requests);
    checkedInteger(binder, "train_runs", 0, 1000000, "within [0, 1e6]",
                   &spec.trainRuns);
    checkedNumber(binder, "accuracy_target_pct", 0.0, 100.0,
                  "within [0, 100]", &spec.accuracyTargetPct);
}

void
bindEnv(const Section &section, const std::string &file, ScenarioSpec &spec,
        Diagnostics &diags)
{
    const Entry *entry = section.find("base");
    if (entry == nullptr) {
        return;
    }
    bool ok = true;
    std::vector<env::ScenarioId> bases;
    if (entry->value.kind == Value::Kind::String) {
        bases.push_back(parseEnvBase(entry->value.str, entry->line, file,
                                     diags, &ok));
    } else if (entry->value.kind == Value::Kind::List) {
        for (const Value &item : entry->value.items) {
            if (item.kind != Value::Kind::String) {
                diags.error(file, entry->line,
                            "env.base list items must be strings");
                ok = false;
                break;
            }
            bases.push_back(
                parseEnvBase(item.str, entry->line, file, diags, &ok));
        }
        if (bases.empty() && ok) {
            diags.error(file, entry->line,
                        "env.base must name at least one scenario");
            ok = false;
        }
        for (std::size_t i = 0; ok && i < bases.size(); ++i) {
            for (std::size_t j = i + 1; j < bases.size(); ++j) {
                if (bases[i] == bases[j]) {
                    diags.error(file, entry->line,
                                "env.base lists '"
                                    + std::string(
                                          env::scenarioName(bases[i]))
                                    + "' twice");
                    ok = false;
                    break;
                }
            }
        }
    } else {
        diags.error(file, entry->line,
                    "env.base must be a scenario name or a list of them, "
                    "got " + std::string(kindName(entry->value.kind)));
        ok = false;
    }
    if (ok) {
        spec.envBases = std::move(bases);
        // Recorded by hand: the list form bypasses Binder::string.
        spec.explicitKeys.insert("env.base");
    }
}

void
bindArrival(Binder &binder, const std::string &file, ScenarioSpec &spec,
            Diagnostics &diags)
{
    if (binder.has("rate_x") && binder.has("rate_rps")) {
        diags.error(file, binder.line("rate_rps"),
                    "arrival.rate_rps and arrival.rate_x are mutually "
                    "exclusive; set one");
    }
    checkedNumber(binder, "rate_x", 1e-6, 1e6, "> 0", &spec.arrival.rateX);
    checkedNumber(binder, "rate_rps", 1e-6, 1e9, "> 0", &spec.arrival.rateRps);
    // <= 0 is the documented "bursts off" spelling.
    binder.number("burst_period_ms", &spec.arrival.burstPeriodMs);
    checkedNumber(binder, "burst_ms", 0.0, 1e9, ">= 0", &spec.arrival.burstMs);
    checkedNumber(binder, "burst_mult", 1.0, 1e6, ">= 1",
                  &spec.arrival.burstMult);
    if (spec.arrival.burstPeriodMs > 0.0
        && spec.arrival.burstMs > spec.arrival.burstPeriodMs) {
        binder.fail("burst_ms", "<= arrival.burst_period_ms",
                    spec.arrival.burstMs);
    }
    checkedNumber(binder, "diurnal_period_ms", 1e-3, 1e12, "> 0",
                  &spec.arrival.diurnalPeriodMs);
    checkedNumber(binder, "diurnal_amplitude", 0.0, 0.999999,
                  "within [0, 1)", &spec.arrival.diurnalAmplitude);
    if (spec.arrival.diurnalAmplitude > 0.0
        && spec.arrival.diurnalPeriodMs <= 0.0) {
        diags.error(file, binder.line("diurnal_amplitude"),
                    "arrival.diurnal_amplitude requires "
                    "arrival.diurnal_period_ms");
    }
}

void
bindQos(Binder &binder, ScenarioSpec &spec)
{
    checkedInteger(binder, "queue_depth", 1, 1000000, "within [1, 1e6]",
                   &spec.queueDepth);
    checkedInteger(binder, "degrade_depth", 0, 1000000, "within [0, 1e6]",
                   &spec.degradeDepth);
}

void
bindRetry(Binder &binder, ScenarioSpec &spec)
{
    checkedNumber(binder, "timeout_ms", 1e-3, 1e9, "> 0",
                  &spec.retry.timeoutMs);
    checkedInteger(binder, "max_retries", 0, 100, "within [0, 100]",
                   &spec.retry.maxRetries);
    checkedNumber(binder, "backoff_ms", 0.0, 1e9, ">= 0",
                  &spec.retry.backoffBaseMs);
    checkedNumber(binder, "backoff_mult", 1e-6, 1e6, "> 0",
                  &spec.retry.backoffMultiplier);
}

void
bindFault(Binder &binder, const std::string &file, ScenarioSpec &spec,
          Diagnostics &diags)
{
    checkedInteger(binder, "seed", 0, 9007199254740992, ">= 0",
                   &spec.faults.seed);
    bindWindow(binder, "brownout_", false, &spec.faults.brownoutWindow);
    checkedNumber(binder, "brownout_slowdown", 1.0, 1e6, ">= 1",
                  &spec.faults.brownoutSlowdown);
    checkedNumber(binder, "brownout_down_prob", 0.0, 1.0, "within [0, 1]",
                  &spec.faults.brownoutDownProb);
    if ((spec.faults.brownoutSlowdown > 1.0
         || spec.faults.brownoutDownProb > 0.0)
        && spec.faults.brownoutWindow.durationSteps <= 0) {
        diags.error(file, binder.line("brownout_slowdown"),
                    "a cloud brownout needs a fault.brownout_duration "
                    "window to fire in");
    }
    checkedNumber(binder, "throttle_factor", 1e-6, 1.0, "within (0, 1]",
                  &spec.faults.throttleFactor);
    checkedNumber(binder, "throttle_prob", 0.0, 1.0, "within [0, 1]",
                  &spec.faults.throttleProb);
    if (spec.faults.throttleFactor < 1.0
        && spec.faults.throttleProb <= 0.0) {
        diags.error(file, binder.line("throttle_factor"),
                    "fault.throttle_factor < 1 needs fault.throttle_prob "
                    "> 0 to ever fire");
    }
    checkedNumber(binder, "transfer_drop_prob", 0.0, 1.0, "within [0, 1]",
                  &spec.faults.transferDropProb);
}

void
bindBlackout(Binder &binder, const std::string &file, ScenarioSpec &spec,
             Diagnostics &diags, int sectionLine)
{
    fault::FaultPlan::Blackout blackout;
    blackout.wlan = false;
    blackout.p2p = false;
    const bool windowOk = bindWindow(binder, "", true, &blackout.window);
    binder.boolean("wlan", &blackout.wlan);
    binder.boolean("p2p", &blackout.p2p);
    if (!blackout.wlan && !blackout.p2p) {
        diags.error(file, sectionLine,
                    "[fault.blackout] must set wlan = true, p2p = true, "
                    "or both");
        return;
    }
    if (windowOk) {
        spec.faults.blackouts.push_back(blackout);
        spec.explicitKeys.insert("fault.blackout");
    }
}

void
bindFade(Binder &binder, ScenarioSpec &spec)
{
    fault::FaultPlan::Fade fade;
    binder.boolean("wlan", &fade.wlan);
    bool ok = checkedNumber(binder, "drop_db", 1e-6, 95.0,
                            "within (0, 95]", &fade.dropDb)
        || binder.required("drop_db");
    ok = (checkedNumber(binder, "probability", 1e-9, 1.0, "within (0, 1]",
                        &fade.probability)
          || binder.required("probability"))
        && ok;
    if (ok) {
        spec.faults.fades.push_back(fade);
        spec.explicitKeys.insert("fault.fade");
    }
}

void
bindMobilitySegment(Binder &binder, ScenarioSpec &spec)
{
    fault::FaultPlan::Segment segment;
    const bool windowOk = bindWindow(binder, "", true, &segment.window);
    binder.boolean("wlan", &segment.wlan);
    const bool ok = (checkedNumber(binder, "attenuation_db", 1e-6, 95.0,
                                   "within (0, 95]", &segment.attenuationDb)
                     || binder.required("attenuation_db"))
        && windowOk;
    if (ok) {
        spec.faults.segments.push_back(segment);
        spec.explicitKeys.insert("mobility.segment");
    }
}

void
bindInterferenceSegment(Binder &binder, const std::string &file,
                        ScenarioSpec &spec, Diagnostics &diags,
                        int sectionLine)
{
    fault::FaultPlan::Surge surge;
    const bool windowOk = bindWindow(binder, "", true, &surge.window);
    bool ok = checkedNumber(binder, "co_cpu", 0.0, 1.0, "within [0, 1]",
                            &surge.cpuUtil)
        || !binder.has("co_cpu");
    ok = (checkedNumber(binder, "co_mem", 0.0, 1.0, "within [0, 1]",
                        &surge.memUtil)
          || !binder.has("co_mem"))
        && ok && windowOk;
    if (surge.cpuUtil <= 0.0 && surge.memUtil <= 0.0) {
        diags.error(file, sectionLine,
                    "[interference.segment] must raise co_cpu, co_mem, "
                    "or both above 0");
        ok = false;
    }
    if (ok) {
        spec.faults.surges.push_back(surge);
        spec.explicitKeys.insert("interference.segment");
    }
}

void
bindFleet(Binder &binder, ScenarioSpec &spec)
{
    checkedNumber(binder, "epoch_ms", 1e-3, 1e9, "> 0", &spec.fleet.epochMs);
    std::string mode;
    if (binder.string("q_mode", &mode)) {
        if (mode != "per-device" && mode != "shared"
            && mode != "federated") {
            binder.failText("q_mode",
                            "must be one of {per-device, shared, "
                            "federated}, got \"" + mode + "\"");
        } else {
            spec.fleet.qMode = mode;
        }
    }
    checkedInteger(binder, "merge_epochs", 1, 1000000, "within [1, 1e6]",
                   &spec.fleet.mergeEpochs);
}

void
bindInfra(Binder &binder, ScenarioSpec &spec)
{
    checkedNumber(binder, "edge_capacity", 1e-6, 1e9, "> 0",
                  &spec.infra.edgeCapacity);
    checkedNumber(binder, "wifi_capacity", 1e-6, 1e9, "> 0",
                  &spec.infra.wifiCapacity);
    checkedNumber(binder, "contention", 1e-6, 1e6, "> 0",
                  &spec.infra.contention);
    checkedNumber(binder, "brownout_period_ms", 0.0, 1e12, ">= 0",
                  &spec.infra.brownoutPeriodMs);
    checkedNumber(binder, "brownout_ms", 0.0, 1e12, ">= 0",
                  &spec.infra.brownoutDurationMs);
    if (spec.infra.brownoutPeriodMs > 0.0
        && spec.infra.brownoutDurationMs > spec.infra.brownoutPeriodMs) {
        binder.fail("brownout_ms", "<= infra.brownout_period_ms",
                    spec.infra.brownoutDurationMs);
    }
    checkedNumber(binder, "brownout_slowdown", 1.0, 1e6, ">= 1",
                  &spec.infra.brownoutSlowdown);
    checkedNumber(binder, "outage_period_ms", 0.0, 1e12, ">= 0",
                  &spec.infra.outagePeriodMs);
    checkedNumber(binder, "outage_ms", 0.0, 1e12, ">= 0",
                  &spec.infra.outageDurationMs);
    if (spec.infra.outagePeriodMs > 0.0
        && spec.infra.outageDurationMs > spec.infra.outagePeriodMs) {
        binder.fail("outage_ms", "<= infra.outage_period_ms",
                    spec.infra.outageDurationMs);
    }
}

void
bindChurn(Binder &binder, ScenarioSpec &spec)
{
    checkedNumber(binder, "crash_prob", 0.0, 1.0, "within [0, 1]",
                  &spec.churn.crashProb);
    checkedNumber(binder, "leave_prob", 0.0, 1.0, "within [0, 1]",
                  &spec.churn.leaveProb);
    if (spec.churn.crashProb + spec.churn.leaveProb > 1.0) {
        binder.failAt("leave_prob",
                      "churn.crash_prob + churn.leave_prob must not"
                      " exceed 1");
    }
    checkedInteger(binder, "down_epochs", 1, 1000000, "within [1, 1e6]",
                   &spec.churn.downEpochs);
    checkedInteger(binder, "initial_devices", 0, 1000000, "within [0, 1e6]",
                   &spec.churn.initialDevices);
    checkedInteger(binder, "join_every_epochs", 1, 1000000, "within [1, 1e6]",
                   &spec.churn.joinEveryEpochs);
}

} // namespace

bool
ScenarioSpec::isSet(const std::string &dottedKey) const
{
    return explicitKeys.count(dottedKey) > 0;
}

bool
ScenarioSpec::declaresFaults() const
{
    for (const std::string &key : explicitKeys) {
        if (key.rfind("fault", 0) == 0 || key.rfind("mobility", 0) == 0
            || key.rfind("interference", 0) == 0) {
            return true;
        }
    }
    return false;
}

ScenarioSpec
bindSpec(const Doc &doc, Diagnostics &diags)
{
    ScenarioSpec spec;
    spec.sourceFile = doc.file;

    // Unknown and duplicated-singleton sections first, so the messages
    // lead with structure before key-level detail.
    std::map<std::string, int> singleton_line;
    for (const Section &section : doc.sections) {
        const SectionSchema *sectionSchema =
            findSectionSchema(section.name);
        if (sectionSchema == nullptr) {
            diags.error(doc.file, section.line,
                        "unknown section [" + section.name + "]");
            continue;
        }
        if (!sectionSchema->repeatable) {
            const auto [it, inserted] =
                singleton_line.emplace(section.name, section.line);
            if (!inserted) {
                diags.error(doc.file, section.line,
                            "duplicate [" + section.name
                                + "] section (first at line "
                                + std::to_string(it->second) + ")");
            }
        }
    }

    for (const Section &section : doc.sections) {
        const SectionSchema *sectionSchema =
            findSectionSchema(section.name);
        if (sectionSchema == nullptr || section.name == "variant") {
            continue; // [variant] is bound by expandVariants.
        }
        Binder binder(section, doc.file, *sectionSchema, diags,
                      &spec.explicitKeys);
        if (section.name == "meta") {
            bindMeta(binder, spec);
        } else if (section.name == "device") {
            bindDevice(binder, spec);
        } else if (section.name == "workload") {
            bindWorkload(binder, spec);
        } else if (section.name == "env") {
            bindEnv(section, doc.file, spec, diags);
        } else if (section.name == "arrival") {
            bindArrival(binder, doc.file, spec, diags);
        } else if (section.name == "qos") {
            bindQos(binder, spec);
        } else if (section.name == "retry") {
            bindRetry(binder, spec);
        } else if (section.name == "fault") {
            bindFault(binder, doc.file, spec, diags);
        } else if (section.name == "fault.blackout") {
            bindBlackout(binder, doc.file, spec, diags, section.line);
        } else if (section.name == "fault.fade") {
            bindFade(binder, spec);
        } else if (section.name == "mobility.segment") {
            bindMobilitySegment(binder, spec);
        } else if (section.name == "interference.segment") {
            bindInterferenceSegment(binder, doc.file, spec, diags,
                                    section.line);
        } else if (section.name == "fleet") {
            bindFleet(binder, spec);
        } else if (section.name == "infra") {
            bindInfra(binder, spec);
        } else if (section.name == "churn") {
            bindChurn(binder, spec);
        }
    }

    // Fleet knobs describe shared infrastructure (and churn describes
    // fleet membership); on a population of one there is nothing to
    // share and the keys would silently do nothing — reject instead.
    if (spec.population <= 1) {
        for (const std::string &key : spec.explicitKeys) {
            if (key.rfind("fleet.", 0) == 0 || key.rfind("infra.", 0) == 0
                || key.rfind("churn.", 0) == 0) {
                const std::string sectionName =
                    key.substr(0, key.find('.'));
                const Section *section = doc.find(sectionName);
                diags.error(doc.file,
                            section != nullptr ? section->line : 0,
                            key + " requires device.population > 1");
                break;
            }
        }
    } else if (spec.churn.initialDevices > spec.population) {
        const Section *churn = doc.find("churn");
        const Entry *entry = churn->find("initial_devices");
        diags.error(doc.file, entry != nullptr ? entry->line : churn->line,
                    "churn.initial_devices must be <= device.population, "
                    "got " + std::to_string(spec.churn.initialDevices));
    }

    // The fault plan reports under the scenario's name, exactly like a
    // --faults preset reports under its preset name.
    if (spec.faults.enabled()) {
        spec.faults.name = spec.name;
    }
    return spec;
}

std::string
canonicalText(const Doc &doc)
{
    std::ostringstream os;
    bool first = true;
    auto emitSection = [&](const Section &section,
                           const SectionSchema &sectionSchema) {
        if (!first) {
            os << "\n";
        }
        first = false;
        os << "[" << section.name << "]\n";
        if (section.name == "variant") {
            // Axis order is meaningful: keep file order.
            for (const Entry &entry : section.entries) {
                os << entry.key << " = " << entry.value.render() << "\n";
            }
            return;
        }
        for (const char *key : sectionSchema.keys) {
            const Entry *entry = section.find(key);
            if (entry != nullptr) {
                os << key << " = " << entry->value.render() << "\n";
            }
        }
    };
    // Singleton sections in schema order; repeatable sections grouped
    // under their schema position, in file order.
    for (const SectionSchema &sectionSchema : schema()) {
        for (const Section &section : doc.sections) {
            if (section.name == sectionSchema.name) {
                emitSection(section, sectionSchema);
                if (!sectionSchema.repeatable) {
                    break;
                }
            }
        }
    }
    return os.str();
}

} // namespace autoscale::scenario
