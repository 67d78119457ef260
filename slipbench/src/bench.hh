/**
 * @file
 * Shared pieces of slipbench, the end-to-end and per-layer benchmark
 * of slipsim: run context, metric report, host clocks, percentiles,
 * the work counts read from stats snapshots, and the span recorder
 * behind the traced runs.
 *
 * slipbench drives slipsim only through its public headers (cell
 * language, sweep engine, CellRun, serve::Server and its frame
 * protocol).  The spans it records wrap the calls it makes into those
 * layers; nothing inside the library is instrumented.
 */

#ifndef SLIPBENCH_BENCH_HH
#define SLIPBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/stats_registry.hh"

namespace slipbench
{

/** Command-line context of one invocation. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Where the span file and the serve socket go (relative to the
     *  checkout root, which is the working directory). */
    std::string outDir = ".";
    /** Directory of the figure benches' cell lists (print-cells=true
     *  output, one <name>.txt per list). */
    std::string cellsDir = ".";
    unsigned nproc = 1;
};

/** Seed that keeps the figure bench's submission order. */
constexpr std::uint64_t defaultSeed = 0;

struct Metric
{
    double value = 0;
    std::string unit;
};

/** What one invocation prints: operation counts, failures, metrics. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when a self-test or a traced-vs-untraced check failed. */
    bool selfTestsOk = true;
    std::vector<std::string> problems;
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value,
             const std::string &unit)
    { metrics[name] = Metric{value, unit}; }

    /** Count @p n failed operations, keeping the first few reasons. */
    void fail(std::uint64_t n, const std::string &why);

    /** Record a failed self-test or consistency check. */
    void selfTestFailed(const std::string &why);

    /** Add @p o's counts and problems (not its metrics). */
    void merge(const Report &o);
};

// --- host clocks ---------------------------------------------------------

inline double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of the whole process. */
double processCpuSeconds();

/** Peak resident set size of the process, in MiB. */
double peakRssMb();

// --- statistics ----------------------------------------------------------

double median(std::vector<double> v);

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p v.  Also returns
 * through @p beyond how many samples lie strictly after its rank, so
 * a caller can refuse a tail percentile the sample cannot support.
 */
double percentile(std::vector<double> v, double p,
                  std::size_t *beyond = nullptr);

/**
 * Report percentile @p p of @p samples as metric @p name, after
 * checking that at least ten samples lie beyond it (p50 needs no
 * such check; it is not a tail).  A short sample is a self-test
 * failure, never a silently reported number.
 */
void reportPercentile(Report &rep, const std::string &name,
                      std::vector<double> samples, double p,
                      const std::string &unit);

// --- work counts ----------------------------------------------------------

/**
 * Simulated work summed over a set of cells, read from each cell's
 * stats snapshot.  These counts must repeat exactly between runs and
 * between the traced and untraced paths; `digest` is FNV-1a over the
 * cells' point fragments in grid order.
 */
struct WorkCounts
{
    std::uint64_t events = 0, cycles = 0;
    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t l2DemandMisses = 0, dirRequests = 0, netMessages = 0;
    std::uint64_t recoveries = 0, lockAcquisitions = 0,
                  barrierEpisodes = 0;
    std::uint64_t digest = 0;

    void add(const slipsim::StatsSnapshot &snap);
    bool operator==(const WorkCounts &o) const = default;

    /** Add every count as a per-layer metric. */
    void report(Report &rep) const;
};

/** Work counts and digest of @p fragments (grid order). */
WorkCounts countFragments(const std::vector<std::string> &fragments);

/** FNV-1a digest of fragments joined by newlines. */
std::uint64_t fragmentDigest(const std::vector<std::string> &fragments);

// --- spans ----------------------------------------------------------------

/** One timed call into a layer.  Times are steady-clock seconds. */
struct SpanRec
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0 = root
    std::uint64_t op = 0;      //!< operation (cell or request) id
    std::string name;
    double start = 0, end = 0;
    unsigned thread = 0;
};

/**
 * In-memory span store for traced runs.  When disabled every call is
 * a no-op, so the untraced passes pay one branch per span site.
 */
class Spans
{
  public:
    void enable(bool on) { enabled.store(on); }

    /** Open a span under the calling thread's innermost open span,
     *  or under @p parent when it is given.  @return its id (0 when
     *  disabled). */
    std::uint64_t open(const std::string &name, std::uint64_t op,
                       std::uint64_t parent = 0);
    void close(std::uint64_t id);

    /** Copy of every span recorded so far (index = id - 1). */
    std::vector<SpanRec> all() const;

    /** Per span name: total self time (duration minus the union of
     *  its children's intervals), in seconds. */
    std::map<std::string, double> selfTimes() const;

    /** Write every span as JSON to @p path, after @p provenance (a
     *  JSON object). */
    void write(const std::string &path,
               const std::string &provenance) const;

    std::size_t size() const;

  private:
    std::atomic<bool> enabled{false};
    mutable std::mutex mu;
    std::vector<SpanRec> recs;  //!< id - 1 indexes this vector
};

/** The process-wide span store. */
Spans &spans();

/** RAII span over one call. */
class Span
{
  public:
    Span(const char *name, std::uint64_t op = 0,
         std::uint64_t parent = 0)
        : id(spans().open(name, op, parent))
    {}
    ~Span() { spans().close(id); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t spanId() const { return id; }

  private:
    std::uint64_t id;
};

// --- workloads ----------------------------------------------------------

/** fig05 and l1-resident. */
void runGridWorkload(const Context &ctx, Report &rep);

/** serve-mixed. */
void runServeWorkload(const Context &ctx, Report &rep);

/** Sweep workers of a workload's grid passes. */
unsigned workloadJobs(const Context &ctx);

/** serve-mixed's server worker pool. */
constexpr unsigned serveWorkers = 2;

/** Outcome of one pass over a list of cells. */
struct GridPass
{
    std::vector<std::string> fragments;  //!< grid order
    std::vector<bool> verified;          //!< grid order
    WorkCounts counts;
    double wall = 0, cpu = 0;
    /** Per-layer timing metrics (traced passes only). */
    std::map<std::string, Metric> layer;
};

/**
 * Run @p lines (canonical cell lines) in @p order on @p jobs workers,
 * calling the library's layers one by one (canonicalize, make the
 * workload, construct CellRun, run, finish, verify, point JSON), each
 * under its own span, and derive the per-layer timing metrics.
 * Simulates exactly what runSweep() does for the same cells.
 */
GridPass runTracedCells(const std::vector<std::string> &lines,
                        const std::vector<std::size_t> &order,
                        unsigned jobs);

/** Seeded submission order of pass @p pass: identity for defaultSeed
 *  (the figure bench's order), otherwise a permutation of [0, n) drawn
 *  afresh for every pass, so a run's median pass samples several
 *  schedules. */
std::vector<std::size_t> submissionOrder(std::size_t n, std::uint64_t seed,
                                         unsigned pass = 0);

// --- cell pools -------------------------------------------------------

/**
 * Cell list @p name ("fig05", "fig05-quick", "fig05-quick-moesi",
 * "fig01-quick", "fig01-quick-moesi"): a figure bench's grid as the
 * canonical cell lines it prints with print-cells=true, in the bench's
 * submission order.  fatal() when the list is missing or empty.
 */
std::vector<std::string> readCells(const Context &ctx,
                                   const std::string &name);

// --- output checks ------------------------------------------------------

/** Failures among one grid pass: one per unverified cell, one per
 *  fragment that differs from the reference pass (if given). */
std::uint64_t gridFailures(const std::vector<bool> &verified,
                           const std::vector<std::string> &fragments,
                           const std::vector<std::string> *reference);

/** Number of @p fragments that do not parse or are not verified. */
std::uint64_t unverifiedFragments(const std::vector<std::string> &fragments);

/** Self-tests of the serve checks: one flipped byte in a served
 *  fragment is exactly one failed request, for regen and explore, and
 *  one unverified seedless twin is exactly one failure. */
void serveCheckSelfTest(const Context &ctx, Report &rep);

} // namespace slipbench

#endif // SLIPBENCH_BENCH_HH
