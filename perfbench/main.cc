/**
 * @file
 * The perfbench binary. Usage:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--git-describe TEXT]
 *
 * Builds the workload's inputs several times (setup_s is the median),
 * then runs whole rounds of its operations for S seconds. Every
 * end-to-end timing is CPU time scaled by a reference kernel timed next
 * to it, so that it reads as at one fixed host speed (see
 * referenceKernelSeconds). Each operation runs in a forked child with a
 * deadline: a child that outlives it is killed and counted as one failed
 * operation, so a hang in the library cannot stop the benchmark. With --trace 1 the children also record
 * spans around every library call, a layer probe runs at the end, the
 * spans are written to DIR as a Chrome trace, and the per-layer metrics
 * are derived from them.
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics; the line before it is the host
 * block.
 */

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/json.h"
#include "util/mem.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNowS()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Span::Span(Report &report, const char *name, double count)
    : report_(report), name_(name), count_(count)
{
    if (report_.tracing_) {
        id_ = report_.nextId_++;
        parent_ = report_.open_;
        report_.open_ = id_;
    }
    startUs_ = nowUs();
}

double
Span::stop()
{
    if (seconds_ >= 0.0) {
        return seconds_;
    }
    const double endUs = nowUs();
    seconds_ = (endUs - startUs_) * 1e-6;
    if (id_ >= 0) {
        report_.spans_.push_back(
            {name_, startUs_, endUs - startUs_, count_, id_, parent_});
        report_.open_ = parent_;
    }
    return seconds_;
}

std::string
Report::serialise() const
{
    std::ostringstream out;
    out.precision(17);
    for (const auto &[key, v] : values_) {
        out << "v " << key << ' ' << v << '\n';
    }
    for (std::string failure : failures_) {
        std::replace(failure.begin(), failure.end(), '\n', ' ');
        out << "f " << failure << '\n';
    }
    for (const SpanRecord &s : spans_) {
        out << "s " << s.name << ' ' << s.startUs << ' ' << s.durUs << ' '
            << s.count << ' ' << s.id << ' ' << s.parent << '\n';
    }
    out << "end\n";
    return out.str();
}

bool
Report::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    bool ended = false;
    while (std::getline(in, line)) {
        if (line == "end") {
            ended = true;
            break;
        }
        std::istringstream fields(line);
        std::string kind;
        fields >> kind;
        if (kind == "v") {
            std::string key;
            double v = 0.0;
            fields >> key >> v;
            values_[key] = v;
        } else if (kind == "f") {
            failures_.push_back(line.substr(2));
        } else if (kind == "s") {
            SpanRecord s;
            fields >> s.name >> s.startUs >> s.durUs >> s.count >> s.id
                >> s.parent;
            spans_.push_back(s);
        }
    }
    return ended;
}

namespace {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::string gitDescribe = "unknown";
};

/**
 * Set-up is repeated for at least this long and at least kSetupRepeats
 * times; setup_s is the median. A single millisecond-scale build varies
 * by tens of percent on a shared host, so one build is never reported.
 */
constexpr double kSetupSeconds = 2.0;
constexpr int kSetupRepeats = 5;
/**
 * CPU time of one referenceKernelSeconds() call on an uncontended vCPU
 * of the machine the benchmark was written on (Intel Xeon, 4 vCPUs,
 * GCC 12.2 RelWithDebInfo). Timings are scaled to this speed.
 */
constexpr double kReferenceSeconds = 0.021;
/** Deadlines of the traced run's layer probe and --jobs curve points. */
constexpr double kProbeDeadlineSeconds = 60.0;
constexpr double kCurveDeadlineSeconds = 30.0;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--out-dir DIR] [--git-describe TEXT]\n"
                 "workloads:";
    for (const std::string &name : workloadNames()) {
        std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[i + 1];
        try {
            if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                options.trace = value == "1";
            } else if (flag == "--out-dir") {
                options.outDir = value;
            } else if (flag == "--git-describe") {
                options.gitDescribe = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (options.workload.empty()) {
        usage("--workload is required");
    }
    if (!(options.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    return options;
}

volatile std::uint64_t gReferenceSink = 0;

/**
 * A fixed piece of work owned by the benchmark, independent of the
 * library: sort 200,000 seeded keys, then fill an open-addressing hash
 * table with 40,000 of them and look every key up. Returns its CPU
 * seconds, page faults included.
 *
 * Other tenants of a shared host slow this VM's branchy, cache-hungry
 * code by up to 40% for seconds to minutes at a time, without steal
 * time to show for it. A dependent multiply chain and a DRAM-bound
 * random walk barely notice; this kernel, like the library, does.
 * Timed right before and right after each measured call on the same
 * CPU, it tells how fast the host was meanwhile.
 *
 * Its memory is mapped and unmapped here, so it leaves nothing in the
 * heap that a later peak-RSS reading would count.
 */
double
referenceKernelSeconds()
{
    constexpr std::size_t kKeys = 200000;
    constexpr std::size_t kSlots = std::size_t{1} << 16;
    constexpr std::uint32_t kInserts = 40000;
    const double start = cpuNowS();
    const std::size_t bytes =
        kKeys * sizeof(std::uint32_t) + kSlots * sizeof(std::uint64_t);
    void *memory = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (memory == MAP_FAILED) {
        throw std::runtime_error("perfbench: cannot map reference memory");
    }
    std::uint64_t *slots = static_cast<std::uint64_t *>(memory);
    std::uint32_t *keys = reinterpret_cast<std::uint32_t *>(slots + kSlots);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < kKeys; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        keys[i] = static_cast<std::uint32_t>(x >> 33);
    }
    std::sort(keys, keys + kKeys);
    // A slot holds (key + 1) in its high half and a sum in its low half;
    // 0 marks an empty slot.
    const auto slotOf = [&](std::uint32_t key) {
        const std::uint64_t tag = key + std::uint64_t{1};
        std::size_t at = (key * 2654435761u) & (kSlots - 1);
        while (slots[at] != 0 && (slots[at] >> 32) != tag) {
            at = (at + 1) & (kSlots - 1);
        }
        return at;
    };
    for (std::uint32_t i = 0; i < kInserts; ++i) {
        const std::uint32_t key = keys[(i * 7919u) % kKeys];
        const std::size_t at = slotOf(key);
        if (slots[at] == 0) {
            slots[at] = (key + std::uint64_t{1}) << 32;
        }
        slots[at] += i;
    }
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kKeys; ++i) {
        sum += slots[slotOf(keys[i])] & 0xffffffffu;
    }
    gReferenceSink = sum;
    ::munmap(memory, bytes);
    return cpuNowS() - start;
}

/** What the parent learned about one forked operation. */
struct OpRun {
    int index = 0;
    int round = 0;
    bool completed = false;
    bool timedOut = false;
    std::string error;
    Report report{false};

    bool
    ok() const
    {
        return completed && report.failures().empty();
    }
};

void
writeAll(int fd, const std::string &text)
{
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return;
        }
        done += static_cast<std::size_t>(n);
    }
}

/** The CPUs this process may run on, in ascending order. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) {
                cpus.push_back(cpu);
            }
        }
    }
    return cpus;
}

/** Pin the calling process to @p cpu, or to all of @p cpus if < 0. */
void
pinTo(int cpu, const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) {
        if (cpu < 0 || c == cpu) {
            CPU_SET(c, &set);
        }
    }
    ::sched_setaffinity(0, sizeof(set), &set);
}

/**
 * Forked children, each running one body with a deadline, at most one
 * per slot. A child pinned to a CPU gets a CPU no other running child
 * holds. A child that outlives its deadline is killed with SIGKILL.
 */
class Children {
  public:
    /** @p cpus: one slot per CPU; with @p pin false the CPUs only count. */
    Children(std::vector<int> cpus, bool pin)
        : cpus_(std::move(cpus)), pin_(pin)
    {
        if (cpus_.empty()) {
            cpus_.push_back(-1);
            pin_ = false;
        }
    }

    ~Children() { drain(); }
    Children(const Children &) = delete;
    Children &operator=(const Children &) = delete;

    /** Start @p body once a slot is free; its OpRun lands in done(). */
    void
    start(OpRun meta, bool tracing, double deadlineSeconds,
          const std::function<void(Report &)> &body)
    {
        while (running_.size() >= cpus_.size()) {
            waitSome();
        }
        int cpu = -1;
        for (const int c : cpus_) {
            if (std::none_of(running_.begin(), running_.end(),
                             [&](const Running &r) { return r.cpu == c; })) {
                cpu = c;
                break;
            }
        }
        Running r;
        r.run = std::move(meta);
        r.cpu = cpu;
        r.deadlineSeconds = deadlineSeconds;
        r.deadlineUs = nowUs() + deadlineSeconds * 1e6;
        int fds[2];
        if (::pipe(fds) != 0) {
            r.run.error = std::string("pipe: ") + std::strerror(errno);
            done_.push_back(std::move(r.run));
            return;
        }
        std::cout.flush();
        std::cerr.flush();
        std::fflush(nullptr);
        const pid_t pid = ::fork();
        if (pid < 0) {
            r.run.error = std::string("fork: ") + std::strerror(errno);
            ::close(fds[0]);
            ::close(fds[1]);
            done_.push_back(std::move(r.run));
            return;
        }
        if (pid == 0) {
            ::close(fds[0]);
            if (pin_) {
                pinTo(cpu, cpus_);
            }
            runChild(fds[1], tracing, body);
        }
        ::close(fds[1]);
        r.pid = pid;
        r.fd = fds[0];
        running_.push_back(std::move(r));
    }

    /** Wait for every running child. */
    void
    drain()
    {
        while (!running_.empty()) {
            waitSome();
        }
    }

    std::vector<OpRun> &done() { return done_; }

  private:
    struct Running {
        pid_t pid = -1;
        int fd = -1;
        int cpu = -1;
        double deadlineUs = 0.0;
        double deadlineSeconds = 0.0;
        std::string text;
        OpRun run;
    };

    [[noreturn]] static void
    runChild(int fd, bool tracing, const std::function<void(Report &)> &body)
    {
        std::string text;
        try {
            Report report(tracing);
            // The peak is read before the second kernel, whose memory
            // would otherwise add to it.
            const double refBefore = referenceKernelSeconds();
            body(report);
            report.value("t.peak_rss_mb",
                         static_cast<double>(autoscale::util::peakRssBytes())
                             / (1024.0 * 1024.0));
            report.value("t.ref_s",
                         0.5 * (refBefore + referenceKernelSeconds()));
            text = report.serialise();
        } catch (const std::exception &e) {
            text = std::string("x ") + e.what() + '\n';
        } catch (...) {
            text = "x unknown exception\n";
        }
        writeAll(fd, text);
        ::close(fd);
        ::_exit(0);
    }

    /** Poll the running children; reap those that ended or timed out. */
    void
    waitSome()
    {
        double soonestUs = running_.front().deadlineUs;
        std::vector<pollfd> fds;
        for (const Running &r : running_) {
            soonestUs = std::min(soonestUs, r.deadlineUs);
            fds.push_back({r.fd, POLLIN, 0});
        }
        const double leftMs = std::max(0.0, (soonestUs - nowUs()) * 1e-3);
        const int ready =
            ::poll(fds.data(), fds.size(), static_cast<int>(leftMs) + 1);
        if (ready < 0 && errno != EINTR) {
            std::perror("perfbench: poll");
        }
        char buffer[65536];
        std::vector<Running> still;
        for (std::size_t i = 0; i < running_.size(); ++i) {
            Running &r = running_[i];
            bool ended = false;
            if (ready > 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
                const ssize_t n = ::read(r.fd, buffer, sizeof(buffer));
                if (n > 0) {
                    r.text.append(buffer, static_cast<std::size_t>(n));
                } else if (n == 0 || errno != EINTR) {
                    ended = true;
                }
            }
            if (!ended && nowUs() >= r.deadlineUs) {
                r.run.timedOut = true;
                ended = true;
            }
            if (ended) {
                reap(r);
                done_.push_back(std::move(r.run));
            } else {
                still.push_back(std::move(r));
            }
        }
        running_ = std::move(still);
    }

    static void
    reap(Running &r)
    {
        ::close(r.fd);
        if (r.run.timedOut) {
            ::kill(r.pid, SIGKILL);
        }
        int status = 0;
        while (::waitpid(r.pid, &status, 0) < 0 && errno == EINTR) {
        }
        OpRun &run = r.run;
        if (run.timedOut) {
            run.error = "deadline of " + std::to_string(r.deadlineSeconds)
                + " s exceeded; killed";
        } else if (r.text.rfind("x ", 0) == 0) {
            run.error = "threw: " + r.text.substr(2);
        } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            run.error = "child died (status " + std::to_string(status) + ")";
        } else if (!run.report.parse(r.text)) {
            run.error = "truncated report";
        } else {
            run.completed = true;
        }
        while (!run.error.empty() && run.error.back() == '\n') {
            run.error.pop_back();
        }
    }

    std::vector<int> cpus_;
    bool pin_;
    std::vector<Running> running_;
    std::vector<OpRun> done_;
};


/** Everything the traced run recorded, for the per-layer metrics. */
struct Collected {
    std::vector<SpanRecord> spans;
    /** Probe values, then the first completed operation's values. */
    std::vector<const Report *> sources;

    /** Time per work item over every span named @p name, in us. */
    double
    perItemUs(const std::string &name) const
    {
        double dur = 0.0;
        double count = 0.0;
        for (const SpanRecord &s : spans) {
            if (s.name == name) {
                dur += s.durUs;
                count += s.count;
            }
        }
        return count > 0.0 ? dur / count : 0.0;
    }

    bool
    hasSpan(const std::string &name) const
    {
        return std::any_of(spans.begin(), spans.end(),
                           [&](const SpanRecord &s) { return s.name == name; });
    }

    /** Median duration of spans named @p name, in us. */
    double
    medianUs(const std::string &name) const
    {
        std::vector<double> d;
        for (const SpanRecord &s : spans) {
            if (s.name == name) {
                d.push_back(s.durUs);
            }
        }
        return median(d);
    }

    /** A value by name, also under the timing prefix "t.". */
    double
    value(const std::string &key) const
    {
        for (const Report *source : sources) {
            for (const std::string &k : {key, "t." + key}) {
                const auto it = source->values().find(k);
                if (it != source->values().end()) {
                    return it->second;
                }
            }
        }
        return 0.0;
    }
};

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

std::vector<Metric>
perLayerMetrics(const Collected &c)
{
    // Serving workloads time runServe in their own operations; the
    // others fall back to the probe's untraced runServe.
    const std::string serveSpan =
        c.hasSpan("serve.runServe") ? "serve.runServe"
                                    : "obs.runServe_untraced";
    std::vector<Metric> m = {
        {"sim.build_ms", "ms", c.medianUs("sim.build") * 1e-3},
        {"sim.expected_ns", "ns", c.perItemUs("sim.expected") * 1e3},
        {"sim.run_ns", "ns", c.perItemUs("sim.run") * 1e3},
        {"sim.run_with_faults_ns", "ns",
         c.perItemUs("sim.runWithFaults") * 1e3},
        {"core.choose_exploit_us", "us",
         c.perItemUs("core.choose_exploit")},
        {"core.train_step_us", "us", c.perItemUs("core.train_step")},
        {"core.qtable_bytes", "bytes", c.value("core.qtable_bytes")},
        {"core.transfer_us", "us", c.medianUs("core.transferFrom")},
        {"baselines.oracle_us", "us",
         c.perItemUs("baselines.optimalTarget")},
        {"harness.fold_train_s", "s",
         c.medianUs("harness.trainPolicy") * 1e-6},
        {"harness.fold_eval_s", "s",
         c.medianUs("harness.evaluatePolicy") * 1e-6},
        {"serve.ns_per_arrival", "ns", c.perItemUs(serveSpan) * 1e3},
    };
    for (const char *count :
         {"served", "shed_deadline", "shed_overflow", "shed_stale",
          "breaker_short_circuits", "fault_fallbacks"}) {
        m.push_back({std::string("serve.") + count, "count",
                     c.value(std::string("serve.") + count)});
    }
    m.push_back({"serve.served_ratio", "ratio", c.value("serve.served_ratio")});
    m.push_back({"serve.p99_ms", "ms", c.value("serve.p99_ms")});
    m.push_back({"serve.fleet_epochs", "count", c.value("serve.fleet_epochs")});
    m.push_back({"serve.fleet_ns_per_device_epoch", "ns",
                 c.perItemUs("serve.runFleet") * 1e3});
    for (const char *jobs : {"1", "2", "4"}) {
        const std::string name =
            std::string("serve.fleet_decisions_per_s_j") + jobs;
        m.push_back({name, "1/s", c.value(name)});
    }
    m.push_back({"serve.fleet_bytes_per_device", "bytes",
                 c.value("serve.fleet_bytes_per_device")});
    m.push_back({"serve.merge_ms", "ms",
                 c.medianUs("serve.mergeQTablesVisitWeighted") * 1e-3});
    m.push_back({"obs.trace_ns_per_decision", "ns",
                 c.value("obs.trace_ns_per_decision")});
    // Span bookkeeping as a share of the time the top-level spans cover.
    double topUs = 0.0;
    for (const SpanRecord &s : c.spans) {
        if (s.parent < 0) {
            topUs += s.durUs;
        }
    }
    const double spanCostUs = static_cast<double>(c.spans.size())
        * c.value("bench.ns_per_span") * 1e-3;
    m.push_back({"bench.span_overhead_pct", "%",
                 topUs > 0.0 ? 100.0 * spanCostUs / topUs : 0.0});
    return m;
}

/** Chrome trace of every span; one pid per operation. */
void
writeTrace(const std::string &path, const std::vector<const OpRun *> &runs)
{
    std::ofstream out(path);
    out.precision(17);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t op = 0; op < runs.size(); ++op) {
        for (const SpanRecord &s : runs[op]->report.spans()) {
            out << (first ? "\n" : ",\n") << "{\"name\":"
                << autoscale::obs::jsonString(s.name)
                << ",\"ph\":\"X\",\"pid\":" << op << ",\"tid\":0,\"ts\":"
                << s.startUs << ",\"dur\":" << s.durUs
                << ",\"args\":{\"count\":" << s.count << ",\"id\":" << s.id
                << ",\"parent\":" << s.parent << "}}";
            first = false;
        }
    }
    out << "\n]}\n";
    if (!out) {
        std::cerr << "perfbench: cannot write " << path << '\n';
    }
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "0";
    }
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

int
run(const Options &options)
{
    const std::string &name = options.workload;
    if (!makeWorkload(name, options.seed, options.outDir)) {
        usage("unknown workload " + name);
    }

    // On a shared host one vCPU can run 20-30% slower than the others for
    // seconds at a time, and a single-threaded process stays on one vCPU.
    // Set-ups therefore rotate over every allowed CPU and operations run
    // one per CPU, so each run samples all of them and the medians do not
    // depend on where the run happened to land.
    const std::vector<int> cpus = allowedCpus();
    std::size_t nextCpu = 0;

    // Set-up: build the inputs repeatedly; keep the last build. Each
    // build's CPU time is scaled by the reference kernel around it.
    std::unique_ptr<Workload> workload;
    std::vector<double> setupTimes;
    std::vector<double> setupCpuTimes;
    std::vector<double> setupWallTimes;
    const double setupStart = nowUs();
    while (static_cast<int>(setupTimes.size()) < kSetupRepeats
           || (nowUs() - setupStart) * 1e-6 < kSetupSeconds) {
        std::unique_ptr<Workload> candidate =
            makeWorkload(name, options.seed, options.outDir);
        pinTo(cpus.empty() ? -1 : cpus[nextCpu++ % cpus.size()], cpus);
        const double refBefore = referenceKernelSeconds();
        const double start = nowUs();
        const double cpuStart = cpuNowS();
        candidate->setUp();
        const double cpuSeconds = cpuNowS() - cpuStart;
        setupWallTimes.push_back((nowUs() - start) * 1e-6);
        const double ref = 0.5 * (refBefore + referenceKernelSeconds());
        setupCpuTimes.push_back(cpuSeconds);
        setupTimes.push_back(cpuSeconds * kReferenceSeconds / ref);
        workload = std::move(candidate);
    }
    pinTo(-1, cpus);

    // Timed phase: whole rounds until the run length is used up. One
    // operation runs on each CPU at a time, so a run samples every CPU.
    std::vector<OpRun> runs;
    int round = 0;
    {
        Children ops(cpus, true);
        const double phaseStart = nowUs();
        do {
            for (int i = 0; i < workload->roundSize(); ++i) {
                OpRun meta;
                meta.index = i;
                meta.round = round;
                ops.start(std::move(meta), options.trace,
                          workload->deadlineSeconds(),
                          [&, i](Report &report) { workload->op(i, report); });
            }
            ++round;
        } while ((nowUs() - phaseStart) * 1e-6 < options.seconds);
        ops.drain();
        runs = std::move(ops.done());
    }
    std::sort(runs.begin(), runs.end(), [](const OpRun &a, const OpRun &b) {
        return a.round != b.round ? a.round < b.round : a.index < b.index;
    });

    // Traced run: the layer probe, then each --jobs point, one at a time.
    // A --jobs point killed at its deadline is a thread-pool hang: it is
    // counted, not fatal.
    std::vector<OpRun> probes;
    std::vector<OpRun> curve;
    int poolHangs = 0;
    if (options.trace) {
        Children one({}, false);
        one.start({}, true, kProbeDeadlineSeconds,
                  [&](Report &report) { workload->probeLayers(report); });
        one.drain();
        probes.push_back(std::move(one.done().back()));
        for (const int jobs : {1, 2, 4}) {
            one.start({}, true, kCurveDeadlineSeconds, [&](Report &report) {
                workload->probeFleetJobs(jobs, report);
            });
            one.drain();
            curve.push_back(std::move(one.done().back()));
            if (curve.back().timedOut) {
                ++poolHangs;
                std::cerr << "perfbench: --jobs " << jobs
                          << " fleet hung; killed at its deadline\n";
            } else {
                probes.push_back(curve.back());
            }
        }
    }

    // Verdicts.
    int failed = 0;
    bool correct = true;
    for (const OpRun &r : runs) {
        if (!r.ok()) {
            ++failed;
            std::cerr << "perfbench: " << name << " op " << r.index
                      << " round " << r.round << " failed: "
                      << (r.completed ? r.report.failures().front()
                                      : r.error)
                      << '\n';
        }
        if (r.completed && !r.report.failures().empty()) {
            correct = false;
        }
    }
    // Operation i repeats identical work every round, so everything it
    // reports outside the timings ("t.*") must repeat exactly.
    for (const OpRun &r : runs) {
        const OpRun *first = nullptr;
        for (const OpRun &other : runs) {
            if (other.index == r.index && other.ok()) {
                first = &other;
                break;
            }
        }
        if (!r.ok() || first == nullptr) {
            continue;
        }
        for (const auto &[key, v] : r.report.values()) {
            if (key.rfind("t.", 0) == 0) {
                continue;
            }
            const auto it = first->report.values().find(key);
            if (it == first->report.values().end() || it->second != v) {
                correct = false;
                std::cerr << "perfbench: " << name << " op " << r.index
                          << " round " << r.round << ": " << key
                          << " differs from round " << first->round << '\n';
            }
        }
    }
    for (const OpRun &p : curve) {
        if (p.ok() && curve.front().ok()
            && p.report.values().at("fleet_checksum_lo")
                != curve.front().report.values().at("fleet_checksum_lo")) {
            correct = false;
            std::cerr << "perfbench: fleet checksum depends on --jobs\n";
        }
    }
    for (const OpRun &p : probes) {
        if (!p.ok()) {
            correct = false;
            std::cerr << "perfbench: layer probe failed: "
                      << (p.completed ? p.report.failures().front() : p.error)
                      << '\n';
        }
    }

    // One complete round gives the simulated metrics.
    double simInferences = 0.0;
    double simEnergy = 0.0;
    double simServed = 0.0;
    for (int r = 0; r < round; ++r) {
        std::vector<const OpRun *> members;
        for (const OpRun &op : runs) {
            if (op.round == r && op.ok()) {
                members.push_back(&op);
            }
        }
        if (static_cast<int>(members.size()) != workload->roundSize()) {
            continue;
        }
        for (const OpRun *op : members) {
            simInferences += op->report.values().at("sim_inferences");
            simEnergy += op->report.values().at("sim_energy_j");
            simServed += op->report.values().at("sim_served");
        }
        break;
    }
    // An operation's rate is per CPU second of the timed call, scaled
    // by the reference kernel timed around it. The unscaled CPU and
    // wall-clock rates go into the host block.
    std::vector<double> rates;
    std::vector<double> cpuRates;
    std::vector<double> wallRates;
    std::vector<double> refs;
    std::vector<double> rss;
    for (const OpRun &r : runs) {
        if (r.ok()) {
            const auto &v = r.report.values();
            cpuRates.push_back(v.at("decisions") / v.at("t.cpu_s"));
            wallRates.push_back(v.at("decisions") / v.at("t.wall_s"));
            refs.push_back(v.at("t.ref_s"));
            rates.push_back(cpuRates.back() * refs.back() / kReferenceSeconds);
            rss.push_back(v.at("t.peak_rss_mb"));
        }
    }

    std::vector<Metric> metrics;
    if (options.trace) {
        Collected collected;
        for (const OpRun &p : probes) {
            collected.sources.push_back(&p.report);
        }
        for (const OpRun &r : runs) {
            if (r.ok()) {
                collected.sources.push_back(&r.report);
                break;
            }
        }
        for (const std::vector<OpRun> *group : {&runs, &probes}) {
            for (const OpRun &r : *group) {
                collected.spans.insert(collected.spans.end(),
                                       r.report.spans().begin(),
                                       r.report.spans().end());
            }
        }
        metrics = perLayerMetrics(collected);
        metrics.push_back({"serve.fleet_pool_hangs", "count",
                           static_cast<double>(poolHangs)});
        std::vector<const OpRun *> traced;
        for (const std::vector<OpRun> *group : {&runs, &probes}) {
            for (const OpRun &r : *group) {
                traced.push_back(&r);
            }
        }
        const std::string path = options.outDir + "/trace-" + name + "-"
            + std::to_string(options.seed) + ".json";
        writeTrace(path, traced);
        std::cout << "spans -> " << path << '\n';
    } else {
        metrics = {
            {"setup_s", "s", median(setupTimes)},
            {"decisions_per_s", "1/s", median(rates)},
            {"peak_rss_mb", "MiB", median(rss)},
            {"sim_ppw", "inf/J", simEnergy > 0.0 ? simInferences / simEnergy
                                                 : 0.0},
            {"sim_served", "count", simServed},
        };
    }

    // Host block, then the result as the last line.
    std::ostringstream host;
    host << "{\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
         << ",\"compiler\":" << autoscale::obs::jsonString(PERFBENCH_COMPILER)
         << ",\"build_type\":"
         << autoscale::obs::jsonString(PERFBENCH_BUILD_TYPE)
         << ",\"git_describe\":"
         << autoscale::obs::jsonString(options.gitDescribe)
         << ",\"workload\":" << autoscale::obs::jsonString(name)
         << ",\"seed\":" << options.seed << ",\"op_seeds\":[";
    const std::vector<std::uint64_t> seeds = workload->opSeeds();
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        host << (i ? "," : "") << seeds[i];
    }
    host << "],\"seconds\":" << jsonNumber(options.seconds)
         << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"rounds\":" << round
         << ",\"setup_repeats\":" << setupTimes.size()
         << ",\"scaled_to_reference_s\":" << jsonNumber(kReferenceSeconds)
         << ",\"unscaled\":{\"reference_s\":" << jsonNumber(median(refs))
         << ",\"cpu_decisions_per_s\":" << jsonNumber(median(cpuRates))
         << ",\"wall_decisions_per_s\":" << jsonNumber(median(wallRates))
         << ",\"setup_cpu_s\":" << jsonNumber(median(setupCpuTimes))
         << ",\"setup_wall_s\":" << jsonNumber(median(setupWallTimes))
         << "}}}";
    std::cout << host.str() << '\n';

    std::ostringstream result;
    result << "{\"correct\":" << (correct ? "true" : "false")
           << ",\"attempted\":" << runs.size() << ",\"failed\":" << failed
           << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        result << (i ? "," : "") << autoscale::obs::jsonString(metrics[i].name)
               << ":{\"value\":" << jsonNumber(metrics[i].value)
               << ",\"unit\":" << autoscale::obs::jsonString(metrics[i].unit)
               << "}";
    }
    result << "}}";
    std::cout << result.str() << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseOptions(argc, argv));
}
