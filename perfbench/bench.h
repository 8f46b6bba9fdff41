/**
 * @file
 * Shared pieces of the perfbench binary: the per-operation Report that a
 * forked child fills and sends back over a pipe, the Span timer used
 * around every call into the library, and the Workload interface.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Microseconds on the monotonic clock, shared by parent and children. */
double nowUs();

/**
 * CPU seconds used so far by every thread of the calling process. Unlike
 * the wall clock it leaves out the time the hypervisor gave the vCPU to
 * another guest (steal).
 */
double cpuNowS();

/** Median of @p v; 0 when empty. */
double median(std::vector<double> v);

/** One timed interval around a call into the library. */
struct SpanRecord {
    std::string name;
    double startUs = 0.0;
    double durUs = 0.0;
    /** Work items the interval covers (calls, arrivals, device-epochs). */
    double count = 1.0;
    int id = 0;
    /** Enclosing span's id, -1 at top level. */
    int parent = -1;
};

/**
 * What one operation produced: named values, output-check failures and,
 * when tracing, the spans recorded around library calls. Filled in the
 * child process and serialised to text for the parent.
 */
class Report {
  public:
    explicit Report(bool tracing) : tracing_(tracing) {}

    void value(const std::string &key, double v) { values_[key] = v; }

    /** Record an output-check failure unless @p ok holds. */
    bool
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            failures_.push_back(what);
        }
        return ok;
    }

    const std::map<std::string, double> &values() const { return values_; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::vector<SpanRecord> &spans() const { return spans_; }

    std::string serialise() const;
    /** Parse serialise() output; false if the text is truncated. */
    bool parse(const std::string &text);

  private:
    friend class Span;
    bool tracing_;
    std::map<std::string, double> values_;
    std::vector<std::string> failures_;
    std::vector<SpanRecord> spans_;
    int open_ = -1;
    int nextId_ = 0;
};

/**
 * Times one interval. It always measures, because the untraced run needs
 * the duration of the timed call; it records a SpanRecord only when the
 * report is tracing.
 */
class Span {
  public:
    Span(Report &report, const char *name, double count = 1.0);
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setCount(double count) { count_ = count; }
    /** End the interval (idempotent); returns its length in seconds. */
    double stop();

  private:
    Report &report_;
    const char *name_;
    double count_;
    double startUs_;
    double seconds_ = -1.0;
    int id_ = -1;
    int parent_ = -1;
};

/**
 * One benchmark workload. setUp() builds everything the timed phase
 * starts from and is timed as `setup_s`; op() runs in a forked child,
 * times exactly one call into the library and checks its outputs.
 */
class Workload {
  public:
    virtual ~Workload() = default;

    virtual void setUp() = 0;
    /** Operations in one round; every run attempts whole rounds. */
    virtual int roundSize() const = 0;
    /** Wall-clock limit of one operation, seconds. */
    virtual double deadlineSeconds() const = 0;
    /**
     * Run operation @p index of a round, on one thread. Must set the
     * values `decisions`, `t.wall_s`, `t.cpu_s`, `sim_inferences`,
     * `sim_energy_j` and `sim_served`. Every value whose name does not
     * start with `t.` must repeat exactly from round to round.
     */
    virtual void op(int index, Report &report) const = 0;
    /** Traced run only: time each layer's public calls. */
    virtual void probeLayers(Report &report) const = 0;
    /** Traced run only: one point of the fleet's --jobs scaling curve. */
    virtual void probeFleetJobs(int jobs, Report &report) const = 0;
    /** Seeds the operations use, for the host block. */
    virtual std::vector<std::uint64_t> opSeeds() const = 0;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Workload @p name driven by @p seed; files it writes go under
 * @p outDir. Null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &outDir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
