/**
 * @file
 * slipbench shared helpers: report, clocks, percentiles, work counts,
 * spans, cell pools and the grid output check.
 */

#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

#include <sys/resource.h>

#include "core/config_hash.hh"
#include "obs/json.hh"
#include "sim/logging.hh"

using namespace slipsim;

namespace slipbench
{

void
Report::fail(std::uint64_t n, const std::string &why)
{
    if (n == 0)
        return;
    failed += n;
    if (problems.size() < 20)
        problems.push_back(why);
}

void
Report::selfTestFailed(const std::string &why)
{
    selfTestsOk = false;
    problems.push_back("self-test: " + why);
}

void
Report::merge(const Report &o)
{
    attempted += o.attempted;
    failed += o.failed;
    selfTestsOk = selfTestsOk && o.selfTestsOk;
    for (const std::string &why : o.problems) {
        if (problems.size() < 20)
            problems.push_back(why);
    }
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p, std::size_t *beyond)
{
    if (v.empty()) {
        if (beyond)
            *beyond = 0;
        return 0;
    }
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    if (beyond)
        *beyond = v.size() - rank;
    return v[rank - 1];
}

void
reportPercentile(Report &rep, const std::string &name,
                 std::vector<double> samples, double p,
                 const std::string &unit)
{
    std::size_t beyond = 0;
    double x = p == 50 ? median(samples)
                       : percentile(samples, p, &beyond);
    rep.set(name, x, unit);
    if (p == 50) {
        std::printf("#   %-28s %12.4f %s  (n=%zu)\n", name.c_str(), x,
                    unit.c_str(), samples.size());
    } else {
        std::printf("#   %-28s %12.4f %s  (n=%zu, %zu beyond)\n",
                    name.c_str(), x, unit.c_str(), samples.size(), beyond);
    }
    if (p != 50 && beyond < 10) {
        rep.selfTestFailed(name + " has only " + std::to_string(beyond) +
                           " samples beyond it (n=" +
                           std::to_string(samples.size()) + ")");
    }
}

// --- work counts -----------------------------------------------------------

namespace
{

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

std::uint64_t
asCount(const StatsSnapshot::Value &v)
{
    if (v.kind == StatsSnapshot::Kind::Counter)
        return v.count;
    if (v.kind == StatsSnapshot::Kind::Gauge)
        return static_cast<std::uint64_t>(v.gauge);
    return 0;
}

} // namespace

void
WorkCounts::add(const StatsSnapshot &snap)
{
    for (const auto &[path, v] : snap.all()) {
        std::uint64_t x = asCount(v);
        if (path == "run.events")
            events += x;
        else if (path == "run.cycles")
            cycles += x;
        else if (path == "run.recoveries")
            recoveries += x;
        else if (path == "net.messages")
            netMessages += x;
        else if (endsWith(path, ".l1.hits"))
            l1Hits += x;
        else if (endsWith(path, ".l1.misses"))
            l1Misses += x;
        else if (endsWith(path, ".l2.demandMisses"))
            l2DemandMisses += x;
        else if (endsWith(path, ".dir.requests"))
            dirRequests += x;
        else if (startsWith(path, "sync.lock") &&
                 endsWith(path, ".acquisitions"))
            lockAcquisitions += x;
        else if (startsWith(path, "sync.barrier") &&
                 endsWith(path, ".episodes"))
            barrierEpisodes += x;
    }
}

void
WorkCounts::report(Report &rep) const
{
    auto d = [](std::uint64_t x) { return static_cast<double>(x); };
    const std::uint64_t accesses = l1Hits + l1Misses;
    rep.set("sim.events", d(events), "count");
    rep.set("sim.cycles", d(cycles), "count");
    rep.set("cpu.l1_accesses", d(accesses), "count");
    rep.set("cpu.l1_miss_pct",
            accesses ? 100.0 * d(l1Misses) / d(accesses) : 0, "%");
    rep.set("mem.l2_demand_misses", d(l2DemandMisses), "count");
    rep.set("mem.dir_requests", d(dirRequests), "count");
    rep.set("mem.dir_per_kaccess",
            accesses ? 1000.0 * d(dirRequests) / d(accesses) : 0,
            "count");
    rep.set("net.messages", d(netMessages), "count");
    rep.set("runtime.recoveries", d(recoveries), "count");
    rep.set("runtime.lock_acquisitions", d(lockAcquisitions), "count");
    rep.set("runtime.barrier_episodes", d(barrierEpisodes), "count");
    // The top 52 bits print exactly as a JSON number.
    rep.set("core.sweep.fragment_digest", d(digest >> 12), "hash");
}

std::uint64_t
fragmentDigest(const std::vector<std::string> &fragments)
{
    std::string all;
    for (const std::string &f : fragments) {
        all += f;
        all += '\n';
    }
    return fnv1a64(all);
}

WorkCounts
countFragments(const std::vector<std::string> &fragments)
{
    WorkCounts w;
    for (const std::string &f : fragments)
        w.add(StatsSnapshot::fromJson(parseJson(f).at("stats")));
    w.digest = fragmentDigest(fragments);
    return w;
}

// --- spans ------------------------------------------------------------------

namespace
{

thread_local std::vector<std::uint64_t> openStack;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned idx = next.fetch_add(1);
    return idx;
}

} // namespace

Spans &
spans()
{
    static Spans s;
    return s;
}

std::uint64_t
Spans::open(const std::string &name, std::uint64_t op,
            std::uint64_t parent)
{
    if (!enabled)
        return 0;
    SpanRec r;
    r.parent = parent ? parent
                      : (openStack.empty() ? 0 : openStack.back());
    r.op = op;
    r.name = name;
    r.thread = threadIndex();
    r.start = nowSeconds();
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        id = recs.size() + 1;
        r.id = id;
        recs.push_back(std::move(r));
    }
    openStack.push_back(id);
    return id;
}

void
Spans::close(std::uint64_t id)
{
    if (id == 0)
        return;
    double t = nowSeconds();
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
    std::lock_guard<std::mutex> lock(mu);
    recs[id - 1].end = t;
}

std::vector<SpanRec>
Spans::all() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recs;
}

std::map<std::string, double>
Spans::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::vector<std::pair<double, double>>> kids(recs.size());
    for (const SpanRec &r : recs) {
        if (r.parent && r.end > 0)
            kids[r.parent - 1].emplace_back(r.start, r.end);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SpanRec &r = recs[i];
        if (r.end <= 0)
            continue;
        // Children may run on other threads and overlap; subtract the
        // union of their intervals, clipped to this span.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, lo = 0, hi = -1;
        for (auto [s, e] : iv) {
            s = std::max(s, r.start);
            e = std::min(e, r.end);
            if (e <= s)
                continue;
            if (s > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = s;
                hi = e;
            } else {
                hi = std::max(hi, e);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        self[r.name] += (r.end - r.start) - covered;
    }
    return self;
}

void
Spans::write(const std::string &path, const std::string &provenance) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ofstream f(path);
    if (!f)
        fatal("cannot write span file '%s'", path.c_str());
    double t0 = recs.empty() ? 0 : recs.front().start;
    f << "{\"schema\": \"slipbench-spans-v1\", \"provenance\": "
      << provenance << ", \"spans\": [";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SpanRec &r = recs[i];
        f << (i ? ",\n" : "\n") << "{\"id\": " << r.id
          << ", \"parent\": " << r.parent << ", \"op\": " << r.op
          << ", \"name\": \"" << jsonEscape(r.name)
          << "\", \"thread\": " << r.thread << ", \"start_us\": "
          << jsonNumber((r.start - t0) * 1e6)
          << ", \"end_us\": " << jsonNumber((r.end - t0) * 1e6) << "}";
    }
    f << "\n]}\n";
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recs.size();
}

// --- cell pools ------------------------------------------------------------

std::vector<std::string>
readCells(const Context &ctx, const std::string &name)
{
    const std::string path = ctx.cellsDir + "/" + name + ".txt";
    std::ifstream f(path);
    if (!f)
        fatal("cannot read cell list '%s'", path.c_str());
    std::vector<std::string> out;
    for (std::string line; std::getline(f, line);) {
        if (line.find("workload=") != std::string::npos)
            out.push_back(line);
    }
    if (out.empty())
        fatal("cell list '%s' holds no cells", path.c_str());
    return out;
}

std::vector<std::size_t>
submissionOrder(std::size_t n, std::uint64_t seed, unsigned pass)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    if (seed != defaultSeed) {
        std::seed_seq seq{seed & 0xffffffffu, seed >> 32,
                          std::uint64_t{pass}};
        std::mt19937_64 rng(seq);
        std::shuffle(order.begin(), order.end(), rng);
    }
    return order;
}

std::uint64_t
gridFailures(const std::vector<bool> &verified,
             const std::vector<std::string> &fragments,
             const std::vector<std::string> *reference)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < fragments.size(); ++i) {
        if (!verified[i])
            ++n;
        else if (reference && (*reference)[i] != fragments[i])
            ++n;
    }
    return n;
}

} // namespace slipbench
