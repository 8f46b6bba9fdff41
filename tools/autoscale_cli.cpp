/**
 * @file
 * Command-line front-end to the AutoScale library. Lets a user explore
 * the edge-cloud decision problem without writing code:
 *
 *   autoscale_cli devices
 *   autoscale_cli workloads
 *   autoscale_cli characterize --device Mi8Pro
 *   autoscale_cli decide --device Mi8Pro --network "MobileNet v3" \
 *       --co-cpu 0.8 --rssi-wlan -85
 *   autoscale_cli train --device Mi8Pro --scenarios S1,S2,D3 \
 *       --runs 400 --out qtable.txt
 *   autoscale_cli evaluate --device Mi8Pro --qtable qtable.txt \
 *       --scenarios S1,S4 --csv
 *
 * A command line is an inline scenario (DESIGN.md §16): every flag is
 * a row of one table. A flag that spells a scenario key becomes an
 * overlay entry on the `--scenario` file's Doc and is validated by the
 * scenario binder alone; the rest are run-control flags with their
 * own range. Unknown, misplaced, repeated-and-conflicting and
 * valueless flags are usage errors, never silently ignored.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/fixed.h"
#include "baselines/oracle.h"
#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "harness/experiment.h"
#include "harness/parallel.h"
#include "obs/json.h"
#include "obs/obs_output.h"
#include "platform/device_zoo.h"
#include "scenario/load.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/table.h"

namespace {

using namespace autoscale;

/** Subcommands, as bits of FlagRow::commands. */
enum Command : unsigned {
    kDevices = 1u << 0,
    kWorkloads = 1u << 1,
    kCharacterize = 1u << 2,
    kDecide = 1u << 3,
    kTrain = 1u << 4,
    kEvaluate = 1u << 5,
    kLoo = 1u << 6,
    kServe = 1u << 7,
};
/** Commands that price one request in a fixed environment. */
constexpr unsigned kProbe = kCharacterize | kDecide;
/** Commands that run the simulator over scenarios. */
constexpr unsigned kRun = kTrain | kEvaluate | kLoo | kServe;

struct CommandInfo {
    const char *name;
    Command bit;
    const char *help;
};

const CommandInfo kCommands[] = {
    {"devices", kDevices, "list the device fleet"},
    {"workloads", kWorkloads, "list the Table III workloads"},
    {"characterize", kCharacterize, "optimal target per workload"},
    {"decide", kDecide, "rank the execution targets of one request"},
    {"train", kTrain, "train a Q-table and save it"},
    {"evaluate", kEvaluate, "AutoScale against the baseline policies"},
    {"loo", kLoo, "leave-one-out evaluation over the zoo"},
    {"serve", kServe, "online serving loop; --fleet N > 1 serves a fleet"},
};

enum class Kind { Int, Number, String, List, Enum, Switch };

/** Serving mode a run-control flag is limited to. */
enum class Mode { Any, Fleet, Single };

/** One command-line flag. */
struct FlagRow {
    const char *flag = "";
    /** Scenario key ("qos.queue_depth"); "" for run control. */
    const char *key = "";
    Kind kind = Kind::String;
    unsigned commands = 0;
    /** Value placeholder; an Enum's choices as "a|b|c". */
    const char *metavar = "";
    const char *help = "";
    /** Run-control range and its wording. */
    double lo = 0.0;
    double hi = 0.0;
    const char *constraint = "";
    Mode mode = Mode::Any;
    /** Flag this one is meaningless without ("" for none). */
    const char *needs = "";
};

/** A flag that sets scenario key @p key; the binder validates it. */
FlagRow
keyed(const char *flag, const char *key, Kind kind, unsigned commands,
      const char *metavar, const char *help)
{
    FlagRow row;
    row.flag = flag;
    row.key = key;
    row.kind = kind;
    row.commands = commands;
    row.metavar = metavar;
    row.help = help;
    return row;
}

/** A run-control flag; numbers must lie in [@p lo, @p hi]. */
FlagRow
control(const char *flag, Kind kind, unsigned commands,
        const char *metavar, const char *help, double lo = 0.0,
        double hi = 0.0, const char *constraint = "",
        Mode mode = Mode::Any, const char *needs = "")
{
    FlagRow row = keyed(flag, "", kind, commands, metavar, help);
    row.lo = lo;
    row.hi = hi;
    row.constraint = constraint;
    row.mode = mode;
    row.needs = needs;
    return row;
}

const std::vector<FlagRow> &
flagTable()
{
    constexpr unsigned kAll = kProbe | kRun;
    constexpr unsigned kEvalLoo = kEvaluate | kLoo;
    static const std::vector<FlagRow> kFlags = {
        // The scenario: a file, and flags that spell its keys.
        control("--scenario", Kind::String, kRun, "FILE", "scenario file "
                "(.scn); on serve a Table IV name S1-D4 sets env.base"),
        control("--variant", Kind::Int, kRun, "N", "expansion of a swept "
                "file", 0, 1e6, ">= 0", Mode::Any, "--scenario"),
        keyed("--device", "device.model", Kind::String, kAll, "NAME",
              "phone model (default Mi8Pro)"),
        keyed("--fleet", "device.population", Kind::Int, kServe, "N",
              "devices; N > 1 serves a fleet"),
        keyed("--seed", "meta.seed", Kind::Int, kRun, "N", "master seed"),
        keyed("--network", "workload.network", Kind::String,
              kDecide | kServe, "NAME", "one zoo workload"),
        keyed("--accuracy", "workload.accuracy_target_pct", Kind::Number,
              kAll, "PCT", "accuracy target"),
        keyed("--requests", "workload.requests", Kind::Int, kServe, "N",
              "arrivals per device"),
        keyed("--runs", "workload.train_runs", Kind::Int, kTrain, "N",
              "training runs per (network, scenario) (default 400)"),
        keyed("--train-runs", "workload.train_runs", Kind::Int,
              kEvalLoo | kServe, "N", "the same (default 400; serve 40)"),
        keyed("--scenarios", "env.base", Kind::List, kTrain | kEvalLoo,
              "S1,D2,...", "Table IV environments (default S1-S5)"),
        keyed("--rate-x", "arrival.rate_x", Kind::Number, kServe, "F",
              "arrival rate / nominal capacity"),
        keyed("--rate-hz", "arrival.rate_rps", Kind::Number, kServe, "F",
              "arrival rate, req/s"),
        keyed("--burst-period-ms", "arrival.burst_period_ms", Kind::Number,
              kServe, "F", "flash-crowd period (<= 0: no bursts)"),
        keyed("--burst-ms", "arrival.burst_ms", Kind::Number, kServe, "F",
              "burst length"),
        keyed("--burst-mult", "arrival.burst_mult", Kind::Number, kServe,
              "F", "rate multiplier in a burst"),
        keyed("--queue-depth", "qos.queue_depth", Kind::Int, kServe, "N",
              "admission queue bound"),
        keyed("--degrade-depth", "qos.degrade_depth", Kind::Int, kServe,
              "N", "queue depth that starts degrading"),
        keyed("--fault-seed", "fault.seed", Kind::Int, kRun, "N",
              "fault-process seed"),
        keyed("--timeout-ms", "retry.timeout_ms", Kind::Number, kRun, "F",
              "per-attempt remote deadline"),
        keyed("--max-retries", "retry.max_retries", Kind::Int, kRun, "N",
              "remote retries before the local fallback"),
        keyed("--backoff-ms", "retry.backoff_ms", Kind::Number, kRun, "F",
              "idle gap before the first retry"),
        keyed("--backoff-mult", "retry.backoff_mult", Kind::Number, kRun,
              "F", "backoff growth per retry"),
        keyed("--q-mode", "fleet.q_mode", Kind::String, kServe, "MODE",
              "per-device, shared or federated Q-tables"),
        keyed("--merge-epochs", "fleet.merge_epochs", Kind::Int, kServe,
              "N", "federated merge period"),
        keyed("--epoch-ms", "fleet.epoch_ms", Kind::Number, kServe, "F",
              "contention barrier interval"),
        keyed("--edge-capacity", "infra.edge_capacity", Kind::Number,
              kServe, "F", "shared edge slots"),
        keyed("--wifi-capacity", "infra.wifi_capacity", Kind::Number,
              kServe, "F", "transfers before Wi-Fi congestion"),
        keyed("--contention", "infra.contention", Kind::Number, kServe,
              "F", "demand multiplier"),
        keyed("--brownout-period-ms", "infra.brownout_period_ms",
              Kind::Number, kServe, "F", "shared cloud brownout period"),
        keyed("--brownout-ms", "infra.brownout_ms", Kind::Number, kServe,
              "F", "brownout length"),
        keyed("--brownout-slowdown", "infra.brownout_slowdown",
              Kind::Number, kServe, "F", "cloud slowdown in a brownout"),
        keyed("--outage-period-ms", "infra.outage_period_ms",
              Kind::Number, kServe, "F", "edge-server outage period"),
        keyed("--outage-ms", "infra.outage_ms", Kind::Number, kServe, "F",
              "outage length"),
        keyed("--churn-crash-prob", "churn.crash_prob", Kind::Number,
              kServe, "P", "per-device per-epoch crash probability"),
        keyed("--churn-leave-prob", "churn.leave_prob", Kind::Number,
              kServe, "P", "per-device per-epoch leave probability"),
        keyed("--churn-down-epochs", "churn.down_epochs", Kind::Int,
              kServe, "N", "epochs a crashed device stays down"),
        keyed("--churn-initial-devices", "churn.initial_devices",
              Kind::Int, kServe, "N", "devices up at epoch 0 (0: all)"),
        keyed("--churn-join-every", "churn.join_every_epochs", Kind::Int,
              kServe, "N", "epochs between staggered joins"),
        // Run control: no scenario key.
        control("--co-cpu", Kind::Number, kProbe, "F", "co-runner CPU "
                "utilization", 0.0, 1.0, "within [0, 1]"),
        control("--co-mem", Kind::Number, kProbe, "F", "co-runner memory "
                "utilization", 0.0, 1.0, "within [0, 1]"),
        control("--rssi-wlan", Kind::Number, kProbe, "DBM", "Wi-Fi signal "
                "(default -55)", -120.0, 0.0, "within [-120, 0]"),
        control("--rssi-p2p", Kind::Number, kProbe, "DBM", "Wi-Fi Direct "
                "signal (default -55)", -120.0, 0.0, "within [-120, 0]"),
        control("--top", Kind::Int, kDecide, "K", "targets to list "
                "(default 8)", 1.0, 1e6, ">= 1"),
        control("--direct", Kind::Switch, kAll, "", "walk the layer model, "
                "not the cost tables (bit-identical)"),
        control("--out", Kind::String, kTrain, "FILE",
                "Q-table output (default qtable.txt)"),
        control("--qtable", Kind::String, kEvaluate | kServe, "FILE",
                "pre-trained Q-table (default: train in place)"),
        control("--runs", Kind::Int, kEvalLoo, "N", "evaluation runs per "
                "(network, scenario) (default 30)", 1.0, 1e6, ">= 1"),
        control("--warmup", Kind::Int, kLoo, "N", "held-out warm-up runs "
                "(default 150)", 0.0, 1e6, ">= 0"),
        control("--jobs", Kind::Int, kEvalLoo | kServe, "N", "worker "
                "threads (results never depend on it)", 1.0, 1024.0,
                "within [1, 1024]"),
        control("--csv", Kind::Switch, kEvalLoo, "", "CSV tables"),
        control("--faults", Kind::Enum, kRun,
                "none|blackout|flaky-wifi|cloud-brownout", "fault preset"),
        control("--trace", Kind::String, kRun, "FILE",
                "one structured event per decision"),
        control("--trace-format", Kind::Enum, kRun, "jsonl|chrome",
                "trace format (default jsonl)"),
        control("--metrics", Kind::String, kRun, "FILE",
                "counters, gauges and histograms"),
        control("--policy", Kind::Enum, kServe,
                "autoscale|cloud|connected-edge|edge-best|edge-cpu",
                "serving policy (default autoscale)"),
        control("--batch", Kind::Int, kServe, "N", "decision batch size "
                "(output-invariant; default 64)", 1.0, 1e6, ">= 1"),
        control("--breaker", Kind::Enum, kServe, "on|off",
                "per-link circuit breakers (default on)"),
        control("--breaker-open-ms", Kind::Number, kServe, "F", "open time "
                "of a tripped breaker", 1e-3, 1e9, "> 0"),
        control("--breaker-probe-successes", Kind::Int, kServe, "N",
                "successes that close a breaker", 1.0, 1e6, ">= 1"),
        control("--checkpoint", Kind::String, kServe, "FILE",
                "crash-safe checkpoint (fleets: epoch manifest)"),
        control("--resume", Kind::Switch, kServe, "", "resume from the "
                "checkpoint", 0, 0, "", Mode::Any, "--checkpoint"),
        control("--checkpoint-interval", Kind::Int, kServe, "N", "requests "
                "between checkpoints (default 100)", 1.0, 1e9, ">= 1",
                Mode::Single, "--checkpoint"),
        control("--shards", Kind::Int, kServe, "N", "fleet partitions "
                "(output-invariant; default 4)", 1.0, 1e6, ">= 1",
                Mode::Fleet),
        control("--checkpoint-every", Kind::Int, kServe, "N", "epochs "
                "between manifests (default 1)", 1.0, 1e6, ">= 1",
                Mode::Fleet, "--checkpoint"),
        control("--halt-after-epochs", Kind::Int, kServe, "N", "simulate a "
                "crash at this barrier", 1.0, 1e9, ">= 1", Mode::Fleet,
                "--checkpoint"),
        control("--fleet-qtable-out", Kind::String, kServe, "FILE", "dump "
                "every final Q-table", 0, 0, "", Mode::Fleet),
        control("--fleet-memory", Kind::Switch, kServe, "", "report peak "
                "RSS (and append it to a JSONL trace)", 0, 0, "",
                Mode::Fleet),
    };
    return kFlags;
}

/** Row for @p flag accepted by @p command, else any row, else null. */
const FlagRow *
findFlag(const std::string &flag, Command command)
{
    const FlagRow *other = nullptr;
    for (const FlagRow &row : flagTable()) {
        if (flag == row.flag) {
            if ((row.commands & command) != 0) {
                return &row;
            }
            other = &row;
        }
    }
    return other;
}

/** Levenshtein distance, for did-you-mean hints. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) {
        row[j] = j;
    }
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diagonal = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diagonal = up;
        }
    }
    return row[b.size()];
}

/** " (did you mean --x?)" for the nearest flag @p command accepts. */
std::string
didYouMean(const std::string &flag, Command command)
{
    const char *best = nullptr;
    std::size_t bestDistance = 4; // Farther than 3 edits is no hint.
    for (const FlagRow &row : flagTable()) {
        const std::size_t distance = editDistance(flag, row.flag);
        if ((row.commands & command) != 0 && distance < bestDistance) {
            best = row.flag;
            bestDistance = distance;
        }
    }
    return best != nullptr ? std::string(" (did you mean ") + best + "?)"
                           : "";
}

/** The validated flags of one command line. */
struct Flags {
    const Args &args;
    /** Run-control numbers, parsed and range-checked. */
    std::map<std::string, double> numbers;
    /** Scenario-key flags, in command-line order. */
    std::vector<scenario::FlagSetting> settings;

    double
    number(const std::string &flag, double fallback) const
    {
        const auto it = numbers.find(flag);
        return it != numbers.end() ? it->second : fallback;
    }

    int
    integer(const std::string &flag, int fallback) const
    {
        return static_cast<int>(number(flag, fallback));
    }
};

/** A scenario Value for @p row's flag text @p text. */
scenario::Value
flagValue(const FlagRow &row, const Args &args, const std::string &text)
{
    scenario::Value value;
    if (row.kind == Kind::Int || row.kind == Kind::Number) {
        if (args.parseDouble(row.flag, &value.num)
            != Args::ParseStatus::Ok) {
            fatal(std::string(row.flag) + " expects a number, got '" + text
                  + "'");
        }
        value.kind = scenario::Value::Kind::Number;
        return value;
    }
    // A list of one is its item, as a file's `base = "S1"`.
    std::stringstream stream(text);
    std::string item;
    while (row.kind == Kind::List && std::getline(stream, item, ',')) {
        value.items.emplace_back();
        value.items.back().str = item;
    }
    if (value.items.size() > 1) {
        value.kind = scenario::Value::Kind::List;
    } else {
        value.items.clear();
        value.str = text;
    }
    return value;
}

/** Check one run-control value against @p row's kind and range. */
double
controlValue(const FlagRow &row, const Args &args, const std::string &text)
{
    const std::string flag = row.flag;
    if (text.empty()) {
        fatal(flag + " expects " + row.metavar);
    }
    if (row.kind == Kind::Enum) {
        const std::string choices = std::string("|") + row.metavar + "|";
        if (text.find('|') != std::string::npos
            || choices.find("|" + text + "|") == std::string::npos) {
            fatal(flag + " expects one of " + row.metavar + ", got '" + text
                  + "'");
        }
        return 0.0;
    }
    double value = 0.0;
    if (row.kind != Kind::Int && row.kind != Kind::Number) {
        return value;
    }
    if (args.parseDouble(flag, &value) != Args::ParseStatus::Ok
        || !std::isfinite(value)
        || (row.kind == Kind::Int && value != std::floor(value))) {
        fatal(flag + " expects "
              + (row.kind == Kind::Int ? "an integer" : "a number")
              + ", got '" + text + "'");
    }
    if (value < row.lo || value > row.hi) {
        fatal(flag + " must be " + row.constraint + ", got " + text);
    }
    return value;
}

/**
 * Validate every token after the command against the flag table:
 * unknown and misplaced flags, stray positionals, missing values and
 * conflicting repeats are fatal. Run-control values are checked here;
 * scenario-key values become Flags::settings for the binder.
 */
Flags
parseFlags(const Args &args, Command command, const std::string &name)
{
    Flags flags{args, {}, {}};
    const std::vector<std::string> &tokens = args.tokens();
    for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::string &token = tokens[i];
        if (token.rfind("--", 0) != 0) {
            fatal("unexpected argument '" + token + "' (values follow "
                  "their --flag; quote values with spaces)");
        }
        const FlagRow *row = findFlag(token, command);
        if (row == nullptr) {
            fatal("unknown flag " + token + didYouMean(token, command));
        }
        if ((row->commands & command) == 0) {
            fatal(token + " is not accepted by " + name);
        }
        if (row->kind == Kind::Switch) {
            continue;
        }
        if (i + 1 == tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
            fatal(token + " expects " + row->metavar
                  + (i + 1 < tokens.size()
                         ? ", got '" + tokens[i + 1] + "'"
                         : std::string()));
        }
        const std::string &text = tokens[++i];
        if (args.hasConflictingDuplicate(token)) {
            fatal(token + " given multiple times with conflicting values");
        }
        if (*row->key == '\0') {
            flags.numbers[token] = controlValue(*row, args, text);
            continue;
        }
        const std::string key = row->key;
        const std::size_t dot = key.find('.');
        flags.settings.push_back({token, key.substr(0, dot),
                                  key.substr(dot + 1),
                                  flagValue(*row, args, text)});
    }
    for (const FlagRow &row : flagTable()) {
        if (*row.needs != '\0' && (row.commands & command) != 0
            && flags.args.has(row.flag) && !flags.args.has(row.needs)) {
            fatal(std::string(row.flag) + " requires " + row.needs);
        }
    }
    return flags;
}

/** Fatal on a fleet-only or single-device-only flag in the other mode. */
void
requireServingMode(const Flags &flags, bool fleet)
{
    for (const FlagRow &row : flagTable()) {
        if (row.mode == (fleet ? Mode::Single : Mode::Fleet)
            && (row.commands & kServe) != 0 && flags.args.has(row.flag)) {
            fatal(std::string(row.flag)
                  + (fleet ? " applies to single-device serving only"
                           : " requires fleet serving (--fleet N > 1)"));
        }
    }
}

/** Whether @p name is a Table IV scenario (S1..D4). */
bool
isTableIvName(const std::string &name)
{
    for (const env::ScenarioId id : env::allScenarios()) {
        if (name == env::scenarioName(id)) {
            return true;
        }
    }
    return false;
}

/**
 * Load `--scenario FILE` (with `--variant N` when the file sweeps),
 * overlay the command line's scenario-key flags and bind the result
 * once. Every diagnostic prints before the fatal, so a broken run
 * reports all its problems in one go. Command defaults that differ
 * from ScenarioSpec's fill what neither side set.
 */
scenario::ScenarioSpec
bindScenario(const Flags &flags, Command command)
{
    std::vector<scenario::FlagSetting> settings = flags.settings;
    std::string path = flags.args.get("--scenario");
    if (command == kServe && isTableIvName(path)) {
        // serve's historical dual mode: a Table IV name, not a file.
        if (flags.args.has("--variant")) {
            fatal("--variant needs a scenario file, not the Table IV "
                  "name " + path);
        }
        settings.push_back({"--scenario", "env", "base", {}});
        settings.back().value.str = path;
        path.clear();
    }
    std::optional<scenario::LoadedScenario> loaded;
    if (!path.empty()) {
        scenario::Diagnostics diags;
        std::vector<scenario::LoadedScenario> variants =
            scenario::loadScenarioFile(path, diags);
        if (!diags.ok()) {
            std::cerr << diags.render();
            fatal("invalid scenario file '" + path + "' ("
                  + std::to_string(diags.diags().size()) + " error(s))");
        }
        if (!flags.args.has("--variant") && variants.size() > 1) {
            fatal("'" + path + "' expands to "
                  + std::to_string(variants.size())
                  + " variants; pick one with --variant N "
                    "(scenario_lint --expand lists them)");
        }
        const auto variant =
            static_cast<std::size_t>(flags.integer("--variant", 0));
        if (variant >= variants.size()) {
            fatal("--variant " + std::to_string(variant)
                  + " out of range; '" + path + "' expands to "
                  + std::to_string(variants.size()) + " variant(s)");
        }
        loaded = std::move(variants[variant]);
    }
    scenario::Diagnostics diags;
    scenario::ScenarioSpec spec = scenario::bindWithFlags(
        loaded ? &*loaded : nullptr, settings, diags);
    if (!diags.ok()) {
        std::cerr << diags.render();
        fatal("invalid settings (" + std::to_string(diags.diags().size())
              + " error(s))");
    }
    if (command != kServe && !spec.isSet("env.base")) {
        spec.envBases = {env::ScenarioId::S1, env::ScenarioId::S2,
                         env::ScenarioId::S3, env::ScenarioId::S4,
                         env::ScenarioId::S5};
    }
    if (spec.trainRuns < 0) {
        spec.trainRuns = command == kServe ? 40 : 400;
    }
    return spec;
}

/**
 * Fault plan of a run. A file that declares fault content owns the
 * plan — mixing it with a `--faults` preset is a conflict, not a
 * merge. `fault.seed` (`--fault-seed`) applies either way.
 */
fault::FaultPlan
faultPlan(const Flags &flags, const scenario::ScenarioSpec &spec)
{
    if (spec.faults.enabled()) {
        if (flags.args.has("--faults")) {
            fatal("--faults conflicts with the fault sections of "
                  + spec.sourceFile + " (drop the flag or the sections)");
        }
        return spec.faults;
    }
    fault::FaultPlan plan =
        fault::FaultPlan::fromName(flags.args.get("--faults", "none"));
    plan.seed = spec.faults.seed;
    return plan;
}

sim::InferenceSimulator
makeSim(const Flags &flags, const scenario::ScenarioSpec &spec)
{
    sim::InferenceSimulator sim = sim::InferenceSimulator::makeDefault(
        platform::makePhone(spec.deviceModel));
    // --direct bypasses the precomputed cost tables (DESIGN.md section
    // 13). Outcomes are bit-identical either way; this exists to
    // demonstrate that and to time the difference.
    if (flags.args.has("--direct")) {
        sim.setUseCostCache(false);
    }
    return sim;
}

/** Co-runner and signal environment of a single decision. */
env::EnvState
probeEnv(const Flags &flags)
{
    env::EnvState env;
    env.coCpuUtil = flags.number("--co-cpu", env.coCpuUtil);
    env.coMemUtil = flags.number("--co-mem", env.coMemUtil);
    env.rssiWlanDbm = flags.number("--rssi-wlan", env.rssiWlanDbm);
    env.rssiP2pDbm = flags.number("--rssi-p2p", env.rssiP2pDbm);
    return env;
}

/** Print @p table as CSV under --csv, else aligned. */
void
printTable(const Flags &flags, const Table &table)
{
    if (flags.args.has("--csv")) {
        table.printCsv(std::cout);
    } else {
        table.print(std::cout);
    }
}

int
cmdDevices()
{
    Table table({"Device", "Tier", "Processors", "Actions"});
    for (const std::string &name : platform::phoneNames()) {
        const sim::InferenceSimulator sim =
            sim::InferenceSimulator::makeDefault(platform::makePhone(name));
        std::string procs;
        for (const platform::Processor *proc :
             sim.localDevice().processors()) {
            if (!procs.empty()) {
                procs += ", ";
            }
            procs += proc->name();
        }
        table.addRow({name,
                      platform::deviceTierName(sim.localDevice().tier()),
                      procs,
                      std::to_string(core::buildActionSpace(sim).size())});
    }
    table.print(std::cout);
    return 0;
}

int
cmdWorkloads()
{
    Table table({"Network", "Task", "CONV", "FC", "RC", "MACs (M)",
                 "QoS (ms)"});
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request = sim::makeRequest(net);
        table.addRow({net.name(), dnn::taskName(net.task()),
                      std::to_string(net.numConv()),
                      std::to_string(net.numFc()),
                      std::to_string(net.numRc()),
                      Table::num(net.totalMacsMillions(), 0),
                      Table::num(request.qosMs, 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdCharacterize(const Flags &flags)
{
    const scenario::ScenarioSpec spec = bindScenario(flags, kCharacterize);
    const sim::InferenceSimulator sim = makeSim(flags, spec);
    const env::EnvState env = probeEnv(flags);
    baselines::OptOracle oracle(sim);
    std::cout << "Device: " << sim.localDevice().name() << "\n\n";
    Table table({"Network", "Optimal target", "Latency (ms)",
                 "Energy (mJ)", "PPW vs CPU FP32"});
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request =
            sim::makeRequest(net, spec.accuracyTargetPct);
        const sim::ExecutionTarget opt = oracle.optimalTarget(request, env);
        const sim::Outcome o = sim.expected(net, opt, env);
        const sim::ExecutionTarget cpu{
            sim::TargetPlace::Local, platform::ProcKind::MobileCpu,
            sim.localDevice().cpu().maxVfIndex(), dnn::Precision::FP32};
        const sim::Outcome baseline = sim.expected(net, cpu, env);
        table.addRow({net.name(), opt.label(),
                      Table::num(o.latencyMs, 1),
                      Table::num(o.energyJ * 1e3, 1),
                      Table::times(baseline.energyJ / o.energyJ, 1)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdDecide(const Flags &flags)
{
    const scenario::ScenarioSpec spec = bindScenario(flags, kDecide);
    const sim::InferenceSimulator sim = makeSim(flags, spec);
    const dnn::Network &net = dnn::findModel(
        spec.network.empty() ? "MobileNet v3" : spec.network);
    const env::EnvState env = probeEnv(flags);
    const sim::InferenceRequest request =
        sim::makeRequest(net, spec.accuracyTargetPct);

    baselines::OptOracle oracle(sim);
    std::cout << "Network: " << net.name() << " on "
              << sim.localDevice().name() << ", QoS "
              << Table::num(request.qosMs, 1) << " ms, accuracy target "
              << Table::num(request.accuracyTargetPct, 0) << "%\n"
              << "Environment: co-CPU "
              << Table::pct(env.coCpuUtil) << ", co-mem "
              << Table::pct(env.coMemUtil) << ", Wi-Fi "
              << Table::num(env.rssiWlanDbm, 0) << " dBm, Wi-Fi Direct "
              << Table::num(env.rssiP2pDbm, 0) << " dBm\n\n";

    // Rank the whole action space by expected energy under constraints.
    struct Row {
        std::string label;
        double latency;
        double energy;
        bool meets_qos;
        bool meets_accuracy;
    };
    std::vector<Row> rows;
    for (const auto &action : oracle.actions()) {
        const sim::Outcome o = sim.expected(net, action, env);
        if (!o.feasible) {
            continue;
        }
        rows.push_back({action.label(), o.latencyMs, o.energyJ,
                        o.latencyMs < request.qosMs,
                        o.accuracyPct >= request.accuracyTargetPct});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        const int ka = (a.meets_qos && a.meets_accuracy) ? 0 : 1;
        const int kb = (b.meets_qos && b.meets_accuracy) ? 0 : 1;
        return ka != kb ? ka < kb : a.energy < b.energy;
    });

    Table table({"Rank", "Target", "Latency (ms)", "Energy (mJ)",
                 "QoS", "Accuracy"});
    const int top = flags.integer("--top", 8);
    for (int i = 0; i < top && i < static_cast<int>(rows.size()); ++i) {
        const Row &row = rows[static_cast<std::size_t>(i)];
        table.addRow({std::to_string(i + 1), row.label,
                      Table::num(row.latency, 1),
                      Table::num(row.energy * 1e3, 1),
                      row.meets_qos ? "ok" : "VIOLATES",
                      row.meets_accuracy ? "ok" : "FAILS"});
    }
    table.print(std::cout);
    return 0;
}

int
cmdTrain(const Flags &flags)
{
    const scenario::ScenarioSpec spec = bindScenario(flags, kTrain);
    sim::InferenceSimulator sim = makeSim(flags, spec);
    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(flags.args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    const fault::FaultPlan faults = faultPlan(flags, spec);
    auto policy = harness::makeAutoScalePolicy(sim, spec.seed);
    Rng rng(spec.seed ^ 0x7ea1ULL);
    std::cout << "Training on " << sim.localDevice().name() << " across "
              << spec.envBases.size() << " scenario(s), " << spec.trainRuns
              << " runs per (network, scenario)";
    if (faults.enabled()) {
        std::cout << ", faults: " << faults.name;
    }
    std::cout << "...\n";
    harness::trainPolicy(*policy, sim, harness::allZooNetworks(),
                         spec.envBases, spec.trainRuns, rng, false,
                         spec.accuracyTargetPct, obs_out.context(), faults,
                         spec.retry);

    // Atomic replace: a crash (or a concurrent reader) never sees a
    // half-written table, and an existing file survives a failed write.
    const std::string out = flags.args.get("--out", "qtable.txt");
    std::ostringstream buffer;
    policy->scheduler().saveQTable(buffer);
    std::string error;
    if (!atomicWriteFile(out, buffer.str(), &error)) {
        fatal("cannot write '" + out + "': " + error);
    }
    std::cout << "Q-table saved to " << out << " ("
              << policy->scheduler().agent().table().memoryBytes() / 1024
              << " KiB in memory)\n";
    obs_out.finalize(&std::cout);
    return 0;
}

int
cmdEvaluate(const Flags &flags)
{
    const scenario::ScenarioSpec spec = bindScenario(flags, kEvaluate);
    sim::InferenceSimulator sim = makeSim(flags, spec);
    const std::vector<env::ScenarioId> &scenarios = spec.envBases;
    const std::uint64_t seed = spec.seed;
    const double accuracy = spec.accuracyTargetPct;

    // The simulator-level counters commute (integer adds), so the
    // shared observer stays deterministic even with concurrent
    // comparator evaluation below.
    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(flags.args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    const fault::FaultPlan faults = faultPlan(flags, spec);
    const fault::RetryPolicy &retry = spec.retry;

    auto autoscale_policy = harness::makeAutoScalePolicy(sim, seed);
    const std::string qtable = flags.args.get("--qtable");
    if (!qtable.empty()) {
        std::ifstream file(qtable);
        if (!file) {
            fatal("cannot open '" + qtable + "'");
        }
        autoscale_policy->scheduler().loadQTable(file);
        std::cout << "Loaded Q-table from " << qtable << "\n";
    } else {
        Rng rng(seed ^ 0x7ea1ULL);
        std::cout << "No --qtable given; training in place...\n";
        harness::trainPolicy(*autoscale_policy, sim,
                             harness::allZooNetworks(), scenarios,
                             spec.trainRuns, rng, false, accuracy, {},
                             faults, retry);
    }
    autoscale_policy->setExploration(false);

    harness::EvalOptions options;
    options.runsPerCombo = flags.integer("--runs", 30);
    options.accuracyTargetPct = accuracy;
    options.seed = seed + 1;
    options.faults = faults;
    options.retry = retry;

    // The baseline policies are independent of each other and each
    // evaluation derives its randomness from options.seed alone, so
    // they fan out across --jobs workers; every policy's numbers are
    // identical to the serial run. Each task builds its own policy
    // (policies accumulate state) and shares only the simulator.
    struct Baseline {
        std::string name;
        std::function<std::unique_ptr<baselines::SchedulingPolicy>()>
            make;
    };
    const std::vector<Baseline> comparators = {
        {"Edge (CPU FP32)",
         [&] { return baselines::makeEdgeCpuFp32Policy(sim); }},
        {"Edge (Best)", [&] { return baselines::makeEdgeBestPolicy(sim); }},
        {"Cloud", [&] { return baselines::makeCloudPolicy(sim); }},
        {"Connected Edge",
         [&] { return baselines::makeConnectedEdgePolicy(sim); }},
        {"Opt", [&] { return baselines::makeOptOracle(sim); }},
    };
    // When observability is on, each concurrent comparator records
    // into private sinks; they are merged into the run-level sinks in
    // listed order (then AutoScale last), so the exported trace and
    // metrics are byte-identical for every --jobs value.
    struct PolicyResult {
        harness::RunStats stats;
        obs::TraceRecorder trace;
        obs::MetricsRegistry metrics;
    };
    const std::vector<PolicyResult> comparator_results =
        harness::parallelIndexed(
            comparators.size(),
            flags.integer("--jobs", harness::defaultJobs()),
            [&](std::size_t i) {
                auto policy = comparators[i].make();
                PolicyResult result;
                harness::EvalOptions task_options = options;
                if (obs_out.config().tracing()) {
                    task_options.obs.trace = &result.trace;
                }
                if (obs_out.config().metering()) {
                    task_options.obs.metrics = &result.metrics;
                }
                result.stats = harness::evaluatePolicy(
                    *policy, sim, harness::allZooNetworks(), scenarios,
                    task_options);
                return result;
            });
    for (const PolicyResult &result : comparator_results) {
        if (obs_out.config().tracing()) {
            obs_out.trace().append(result.trace);
        }
        if (obs_out.config().metering()) {
            obs_out.metrics().merge(result.metrics);
        }
    }

    // AutoScale runs serially after the merge, so it records straight
    // into the run-level sinks.
    options.obs = obs_out.context();
    const harness::RunStats autoscale_stats = harness::evaluatePolicy(
        *autoscale_policy, sim, harness::allZooNetworks(), scenarios,
        options);

    Table table({"Policy", "PPW (1/J)", "Mean energy (mJ)",
                 "QoS violations", "Opt-match"});
    auto add = [&](const std::string &name,
                   const harness::RunStats &stats) {
        table.addRow({name, Table::num(stats.ppw(), 2),
                      Table::num(stats.meanEnergyJ() * 1e3, 2),
                      Table::pct(stats.qosViolationRatio()),
                      Table::pct(stats.predictionAccuracy())});
    };
    for (std::size_t i = 0; i < comparators.size(); ++i) {
        add(comparators[i].name, comparator_results[i].stats);
    }
    add("AutoScale", autoscale_stats);

    printTable(flags, table);

    if (faults.enabled()) {
        std::cout << "\nFault injection (" << faults.name << ", seed "
                  << faults.seed << ", timeout "
                  << Table::num(retry.timeoutMs, 0) << " ms, "
                  << retry.maxRetries << " retries):\n";
        Table fault_table({"Policy", "Retries", "Timeouts", "Drops",
                           "Fallbacks", "Wasted (mJ)"});
        auto add_faults = [&](const std::string &name,
                              const harness::RunStats &stats) {
            fault_table.addRow(
                {name, std::to_string(stats.faultRetries()),
                 std::to_string(stats.faultTimeouts()),
                 std::to_string(stats.faultDrops()),
                 Table::pct(stats.faultFallbackRatio()),
                 Table::num(stats.faultWastedEnergyJ() * 1e3, 1)});
        };
        for (std::size_t i = 0; i < comparators.size(); ++i) {
            add_faults(comparators[i].name, comparator_results[i].stats);
        }
        add_faults("AutoScale", autoscale_stats);
        printTable(flags, fault_table);
    }
    obs_out.finalize(&std::cout);
    return 0;
}

int
cmdLoo(const Flags &flags)
{
    const scenario::ScenarioSpec spec = bindScenario(flags, kLoo);
    sim::InferenceSimulator sim = makeSim(flags, spec);
    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(flags.args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    harness::EvalOptions options;
    options.runsPerCombo = flags.integer("--runs", 30);
    options.looWarmupRuns = flags.integer("--warmup", 150);
    options.accuracyTargetPct = spec.accuracyTargetPct;
    options.seed = spec.seed;
    options.jobs = flags.integer("--jobs", harness::defaultJobs());
    options.obs = obs_out.context();
    options.faults = faultPlan(flags, spec);
    options.retry = spec.retry;

    std::cout << "Leave-one-out over " << harness::allZooNetworks().size()
              << " workloads on " << sim.localDevice().name() << ", "
              << spec.envBases.size() << " scenario(s), " << options.jobs
              << " worker(s)...\n";
    const harness::RunStats loo = harness::evaluateAutoScaleLoo(
        sim, harness::allZooNetworks(), spec.envBases, spec.trainRuns,
        options);

    Table table({"Metric", "Value"});
    table.addRow({"Evaluated inferences", std::to_string(loo.count())});
    table.addRow({"PPW (1/J)", Table::num(loo.ppw(), 2)});
    table.addRow({"Mean energy (mJ)",
                  Table::num(loo.meanEnergyJ() * 1e3, 2)});
    table.addRow({"QoS violations", Table::pct(loo.qosViolationRatio())});
    table.addRow({"Opt-match", Table::pct(loo.predictionAccuracy())});
    table.addRow({"Near-optimal (1%)",
                  Table::pct(loo.nearOptimalRatio())});
    if (options.faults.enabled()) {
        table.addRow({"Fault retries",
                      std::to_string(loo.faultRetries())});
        table.addRow({"Fault timeouts",
                      std::to_string(loo.faultTimeouts())});
        table.addRow({"Fault drops", std::to_string(loo.faultDrops())});
        table.addRow({"Fault fallbacks",
                      Table::pct(loo.faultFallbackRatio())});
        table.addRow({"Fault wasted energy (mJ)",
                      Table::num(loo.faultWastedEnergyJ() * 1e3, 1)});
    }
    printTable(flags, table);
    obs_out.finalize(&std::cout);
    return 0;
}

int
cmdServe(const Flags &flags)
{
    const scenario::ScenarioSpec spec = bindScenario(flags, kServe);
    requireServingMode(flags, spec.population > 1);
    if (spec.envBases.size() != 1) {
        fatal("serve replays one environment, but " + spec.sourceFile
              + " lists " + std::to_string(spec.envBases.size())
              + " env.base entries (sweep them with [variant])");
    }

    sim::InferenceSimulator sim = makeSim(flags, spec);
    obs::ObsOutput obs_out(obs::ObsConfig::fromArgs(flags.args));
    if (obs_out.config().metering()) {
        sim.setObserver(&obs_out.metrics());
    }

    serve::ServeConfig config;
    config.scenario = spec.envBases.front();
    config.faults = faultPlan(flags, spec);
    config.retry = spec.retry;
    config.totalRequests = spec.requests;
    config.policyName = flags.args.get("--policy", config.policyName);
    config.networkFilter = spec.network;
    config.accuracyTargetPct = spec.accuracyTargetPct;
    config.seed = spec.seed;
    config.trainRunsPerCombo = spec.trainRuns;
    config.qtablePath = flags.args.get("--qtable");
    config.checkpointPath = flags.args.get("--checkpoint");
    config.checkpointIntervalRequests = flags.integer(
        "--checkpoint-interval", config.checkpointIntervalRequests);
    config.resume = flags.args.has("--resume");
    config.batchSize = flags.integer("--batch", config.batchSize);
    config.admission.maxDepth = spec.queueDepth;
    config.admission.degradeDepth = spec.degradeDepth;
    config.breakerEnabled = flags.args.get("--breaker", "on") == "on";
    config.breaker.openBaseMs =
        flags.number("--breaker-open-ms", config.breaker.openBaseMs);
    config.breaker.halfOpenSuccesses = flags.integer(
        "--breaker-probe-successes", config.breaker.halfOpenSuccesses);

    // Arrival rate: either absolute (arrival.rate_rps) or as a multiple
    // of the server's nominal local-only capacity (arrival.rate_x; 2.0
    // = sustained 2x overload).
    std::vector<const dnn::Network *> networks;
    for (const auto &network : dnn::modelZoo()) {
        if (config.networkFilter.empty()
            || network.name() == config.networkFilter) {
            networks.push_back(&network);
        }
    }
    const double nominal_ms = serve::nominalServiceMs(
        sim, networks, config.accuracyTargetPct);
    const double rate_hz = spec.arrival.rateRps > 0.0
        ? spec.arrival.rateRps
        : spec.arrival.rateX * 1000.0 / nominal_ms;
    config.arrival.ratePerSec = rate_hz;
    config.arrival.burstPeriodMs = spec.arrival.burstPeriodMs;
    config.arrival.burstDurationMs = spec.arrival.burstMs;
    config.arrival.burstMultiplier = spec.arrival.burstMult;
    config.arrival.diurnalPeriodMs = spec.arrival.diurnalPeriodMs;
    config.arrival.diurnalAmplitude = spec.arrival.diurnalAmplitude;

    if (!spec.sourceFile.empty()) {
        // The basename keeps the banner checkout-independent.
        std::cout << "Scenario: " << spec.name << " ("
                  << spec.sourceFile.substr(
                         spec.sourceFile.find_last_of('/') + 1)
                  << ")\n";
    }

    // --- Fleet mode: device.population > 1 drives N devices through
    // the shared-infrastructure event loop. A population of one takes
    // the single-device path below, byte-identical to pre-fleet serve.
    if (spec.population > 1) {
        serve::FleetConfig fleet;
        fleet.serve = config;
        fleet.devices = spec.population;
        fleet.shards = flags.integer("--shards", fleet.shards);
        fleet.jobs = flags.integer("--jobs", 0);
        fleet.qMode = serve::qTableModeFromName(spec.fleet.qMode);
        fleet.federatedMergeEpochs = spec.fleet.mergeEpochs;
        fleet.epochMs = spec.fleet.epochMs;
        fleet.infra = spec.infra;
        fleet.churn = spec.churn;
        // Fleet checkpointing: serve.checkpointPath/resume carry over
        // verbatim; runFleet interprets them as the epoch-barrier
        // manifest (fleet_checkpoint.h), not a per-request checkpoint.
        fleet.checkpointEveryEpochs =
            flags.integer("--checkpoint-every", fleet.checkpointEveryEpochs);
        fleet.haltAfterEpochs =
            flags.integer("--halt-after-epochs", fleet.haltAfterEpochs);
        const std::string qtableOut = flags.args.get("--fleet-qtable-out");
        fleet.collectQTables = !qtableOut.empty();
        fleet.reportMemory = flags.args.has("--fleet-memory");

        std::cout << "Serving fleet of " << fleet.devices << " devices ("
                  << config.totalRequests << " arrivals each) on "
                  << sim.localDevice().name() << ", scenario "
                  << env::scenarioName(config.scenario) << ", q-mode "
                  << serve::qTableModeName(fleet.qMode) << ", "
                  << fleet.shards << " shards...\n";
        const serve::FleetStats stats =
            serve::runFleet(sim, fleet, obs_out.context());
        if (stats.halted) {
            // Simulated crash (--halt-after-epochs): like a SIGKILL at
            // the barrier, nothing is finalized or exported — only the
            // fleet manifest survives for a later --resume.
            std::cout << "Fleet halted after " << stats.epochs
                      << " epochs (fleet checkpoint at "
                      << config.checkpointPath << ")\n";
            return 0;
        }
        serve::printFleetReport(std::cout, fleet, stats);
        if (!qtableOut.empty()) {
            std::ofstream out(qtableOut);
            if (!out) {
                fatal("cannot write '" + qtableOut + "'");
            }
            out << stats.qtableDump;
        }
        obs_out.finalize(&std::cout);
        // Appended after the trace proper so the decision-event bytes
        // stay identical with or without --fleet-memory; trace_summary
        // picks the record up, older readers skip it as an unknown
        // non-decision line.
        if (fleet.reportMemory && obs_out.config().tracing()
            && obs_out.config().traceFormat == obs::TraceFormat::Jsonl) {
            std::ofstream trace(obs_out.config().tracePath,
                                std::ios::app);
            trace << "{\"fleet_memory\":true,\"devices\":"
                  << fleet.devices << ",\"peak_rss_bytes\":"
                  << stats.peakRssBytes << ",\"bytes_per_device\":"
                  << obs::jsonNumber(stats.bytesPerDevice) << "}\n";
        }
        return 0;
    }

    std::cout << "Serving " << config.totalRequests << " arrivals on "
              << sim.localDevice().name() << ", scenario "
              << env::scenarioName(config.scenario) << ", rate "
              << Table::num(rate_hz, 1) << " req/s (nominal capacity "
              << Table::num(1000.0 / nominal_ms, 1) << " req/s)";
    if (config.faults.enabled()) {
        std::cout << ", faults: " << config.faults.name;
    }
    std::cout << ", breaker " << (config.breakerEnabled ? "on" : "off")
              << "...\n";

    const serve::ServeStats stats =
        serve::runServe(sim, config, obs_out.context());
    serve::printServeReport(std::cout, config, stats);
    obs_out.finalize(&std::cout);
    return 0;
}

/** Comma-separated names of the commands in @p bits. */
std::string
commandNames(unsigned bits)
{
    std::string names;
    for (const CommandInfo &info : kCommands) {
        if ((bits & info.bit) != 0) {
            names += names.empty() ? "" : ", ";
            names += info.name;
        }
    }
    return names;
}

/** Usage, generated from the command and flag tables. */
int
usage()
{
    const auto column = [](std::string text) {
        text.resize(std::max<std::size_t>(text.size() + 1, 32), ' ');
        return text;
    };
    std::cout << "autoscale_cli — AutoScale (MICRO 2020) reproduction CLI\n"
                 "\nUsage: autoscale_cli COMMAND [--flag VALUE]...\n"
                 "\nCommands:\n";
    for (const CommandInfo &info : kCommands) {
        std::cout << column("  " + std::string(info.name)) << info.help
                  << "\n";
    }
    std::cout << "\nFlags (commands that accept them; [scenario key]):\n";
    for (const FlagRow &row : flagTable()) {
        std::string scope = commandNames(row.commands);
        if (row.mode != Mode::Any) {
            scope += row.mode == Mode::Fleet ? "; fleets only"
                                             : "; single device only";
        }
        if (*row.constraint != '\0') {
            scope += std::string("; ") + row.constraint;
        }
        if (*row.needs != '\0') {
            scope += std::string("; needs ") + row.needs;
        }
        if (*row.key != '\0') {
            scope += std::string(" [") + row.key + "]";
        }
        std::cout << column("  " + std::string(row.flag) + " " + row.metavar)
                  << row.help << "\n"
                  << column("") << scope << "\n";
    }
    std::cout <<
        "\nA command line is an inline scenario: a flag with a [key] sets\n"
        "that key, is validated exactly like it in a .scn file, and may\n"
        "restate but never contradict a --scenario file. Validate and\n"
        "expand files with scenario_lint; the library lives in\n"
        "scenarios/. Results, including --trace and --metrics files, are\n"
        "identical for every --jobs value.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const CommandInfo *command = nullptr;
    for (const CommandInfo &info : kCommands) {
        if (argc >= 2 && std::string(argv[1]) == info.name) {
            command = &info;
        }
    }
    if (command == nullptr) {
        return usage();
    }
    const Args args(argc, argv);
    const Flags flags = parseFlags(args, command->bit, command->name);
    switch (command->bit) {
      case kDevices: return cmdDevices();
      case kWorkloads: return cmdWorkloads();
      case kCharacterize: return cmdCharacterize(flags);
      case kDecide: return cmdDecide(flags);
      case kTrain: return cmdTrain(flags);
      case kEvaluate: return cmdEvaluate(flags);
      case kLoo: return cmdLoo(flags);
      case kServe: return cmdServe(flags);
    }
    return usage();
}
