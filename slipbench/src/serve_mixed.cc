/**
 * @file
 * `serve-mixed`: an in-process serve::Server (workers=2) and two
 * closed-loop client connections from this process.
 *
 *  - regen re-requests the fig01 --quick grid (48 cells), alternating
 *    msi and moesi.  Every cell is a cache hit; the client assembles
 *    the document with writeStatsDoc() and compares it with the
 *    committed golden.
 *  - explore asks for 2 unseen cells per request: a fig05 --quick pool
 *    cell (either protocol) plus a fresh seed=.  No kernel reads the
 *    task RNG, so the fragment must equal the seedless twin's, yet the
 *    cell always misses the cache.
 *
 * The timed phase is a sequence of rounds.  In a round the regen
 * client sends 4 requests and the explore client 8, concurrently, each
 * waiting for its previous reply; wall_s and cpu_s are per round.
 * Set-up is server start plus one cold pass over both cell pools; it
 * runs setUpRepeats times and setup_s is the median.
 */

#include "bench.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "core/build_info.hh"
#include "core/cell.hh"
#include "core/config_hash.hh"
#include "core/sweep.hh"
#include "obs/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/logging.hh"

using namespace slipsim;

namespace slipbench
{

namespace
{

constexpr int regenPerRound = 4;
constexpr int explorePerRound = 8;
constexpr int cellsPerExplore = 2;
constexpr int setUpRepeats = 7;

/** Reply to one "run" request, fragments by cell index. */
struct RunReply
{
    std::vector<std::string> fragments;
    std::uint64_t hits = 0, misses = 0, errors = 0;
    bool done = false;
    std::string error;
    std::size_t bytes = 0;
    double lastFrame = 0;  //!< steady-clock time of the done frame
};

std::string
runRequestJson(const std::vector<std::string> &cells)
{
    std::string s = "{\"op\": \"run\", \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        s += i ? ", \"" : "\"";
        s += jsonEscape(cells[i]);
        s += '"';
    }
    s += "]}";
    return s;
}

/** Send one run request on @p fd and read frames up to "done". */
RunReply
runRequest(int fd, const std::vector<std::string> &cells)
{
    RunReply rep;
    rep.fragments.resize(cells.size());
    if (!serve::writeFrame(fd, runRequestJson(cells))) {
        rep.error = "write failed";
        return rep;
    }
    static const std::string cellTag = "{\"cell\": ";
    static const std::string pointTag = ", \"point\": ";
    while (true) {
        std::string payload;
        serve::FrameStatus st = serve::readFrame(fd, payload);
        if (st != serve::FrameStatus::Ok) {
            rep.error = std::string("read: ") + serve::frameStatusName(st);
            return rep;
        }
        rep.bytes += payload.size() + 4;
        if (payload.rfind(cellTag, 0) == 0) {
            const std::size_t idx = std::strtoull(
                payload.c_str() + cellTag.size(), nullptr, 10);
            const std::size_t at = payload.find(pointTag);
            if (idx >= cells.size() || at == std::string::npos ||
                payload.back() != '}') {
                ++rep.errors;  // a cell error frame or a malformed one
                continue;
            }
            const std::size_t from = at + pointTag.size();
            rep.fragments[idx] =
                payload.substr(from, payload.size() - 1 - from);
            continue;
        }
        try {
            JsonValue v = parseJson(payload);
            if (const JsonValue *e = v.find("error")) {
                rep.error = e->isString() ? e->str : "error frame";
                return rep;
            }
            if (v.find("done")) {
                rep.done = true;
                rep.hits = static_cast<std::uint64_t>(v.at("hits").number);
                rep.misses =
                    static_cast<std::uint64_t>(v.at("misses").number);
                rep.errors +=
                    static_cast<std::uint64_t>(v.at("errors").number);
                rep.lastFrame = nowSeconds();
                return rep;
            }
        } catch (const std::exception &e) {
            rep.error = std::string("malformed frame: ") + e.what();
            return rep;
        }
    }
}

/** True when @p r is a complete reply with the expected hit split. */
bool
replyOk(const RunReply &r, std::uint64_t hits, std::uint64_t misses)
{
    return r.done && r.error.empty() && r.errors == 0 && r.hits == hits &&
        r.misses == misses;
}

/** The reassembled document, or "" when a fragment does not parse. */
std::string
assemble(const std::vector<std::string> &fragments)
{
    std::ostringstream os;
    try {
        writeStatsDoc(os, fragments);
    } catch (const std::exception &) {
        return {};
    }
    return std::move(os).str();
}

/** 1 when a regen reply is incomplete, not all hits, or its document
 *  differs from @p golden; else 0. */
std::uint64_t
regenFailures(const RunReply &r, const std::string &doc,
              const std::string &golden)
{
    const std::uint64_t n = r.fragments.size();
    return replyOk(r, n, 0) && doc == golden ? 0 : 1;
}

/** 1 when an explore reply is incomplete, has a hit, or any fragment
 *  differs from its seedless twin; else 0. */
std::uint64_t
exploreFailures(const RunReply &r, const std::vector<std::string> &twins,
                const std::vector<std::size_t> &idx)
{
    bool same = true;
    for (std::size_t c = 0; c < idx.size(); ++c)
        same = same && r.fragments[c] == twins[idx[c]];
    return replyOk(r, 0, idx.size()) && same ? 0 : 1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        fatal("cannot read '%s'", path.c_str());
    std::ostringstream os;
    os << f.rdbuf();
    return std::move(os).str();
}

int
connectClient(const std::string &path)
{
    int fd = serve::connectUnix(path);
    if (fd < 0)
        fatal("cannot connect to '%s'", path.c_str());
    // A hung server must surface as a failed request, not a hang.
    timeval tv{60, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

/** One server with its two client connections. */
struct Session
{
    std::unique_ptr<serve::Server> server;
    int regenFd = -1, exploreFd = -1;

    ~Session()
    {
        for (int fd : {regenFd, exploreFd}) {
            if (fd >= 0)
                ::close(fd);
        }
        if (server)
            server->stop();
    }
};

struct Pools
{
    std::vector<std::string> regen[2];  //!< msi, moesi
    std::string golden[2];
    std::vector<std::string> explore;   //!< fig05 --quick, both protocols
    /** Explore cells that are also regen cells, so the cold pass finds
     *  them in the cache: fig05 --quick shares its single and double
     *  cells with fig01 --quick. */
    std::uint64_t exploreHits = 0;
    std::vector<std::string> twins;     //!< seedless fragments, pool order
};

std::string
cellKey(const std::string &line)
{
    return cacheKey(parseConfigLine(line), buildGitRev(), buildTypeName());
}

/** Explore cells whose cache key a regen cell also has. */
std::uint64_t
sharedCells(const Pools &pools)
{
    std::set<std::string> regenKeys;
    for (const auto &pool : pools.regen) {
        for (const std::string &line : pool)
            regenKeys.insert(cellKey(line));
    }
    std::uint64_t n = 0;
    for (const std::string &line : pools.explore)
        n += regenKeys.count(cellKey(line));
    return n;
}

/** Server start, connections, and the cold pass over both pools. */
std::unique_ptr<Session>
setUp(Pools &pools, Report &rep, const std::string &socketPath)
{
    auto s = std::make_unique<Session>();
    serve::ServeConfig cfg;
    // The Unix socket, as scripts/serve_smoke.sh uses: the frame writer
    // sends prefix and payload separately, which Nagle's algorithm
    // stalls on TCP.
    cfg.unixPath = socketPath;
    cfg.workers = serveWorkers;
    // Small enough that explore misses evict within a run, so the
    // server's memory reaches its steady state.
    cfg.cacheBytes = 16u << 20;
    cfg.gitRev = buildGitRev();
    cfg.buildType = buildTypeName();
    s->server = std::make_unique<serve::Server>(cfg);
    s->server->start();
    s->regenFd = connectClient(socketPath);
    s->exploreFd = connectClient(socketPath);

    for (int p = 0; p < 2; ++p) {
        RunReply r = runRequest(s->regenFd, pools.regen[p]);
        ++rep.attempted;
        const std::size_t n = pools.regen[p].size();
        if (!replyOk(r, 0, n) || assemble(r.fragments) != pools.golden[p])
            rep.fail(1, std::string("cold regen differs from ") +
                            "its golden: " + r.error);
    }
    // The explore pool is one request; each of its cells then stands
    // as a seedless twin, which must itself be verified.
    RunReply r = runRequest(s->exploreFd, pools.explore);
    const std::uint64_t n = pools.explore.size();
    rep.attempted += 1 + n;
    if (!replyOk(r, pools.exploreHits, n - pools.exploreHits))
        rep.fail(1, "cold explore pool request failed or has the wrong "
                    "hit/miss split: " + r.error);
    rep.fail(unverifiedFragments(r.fragments),
             "cold explore pool has unverified cells");
    pools.twins = std::move(r.fragments);
    return s;
}

struct Samples
{
    std::vector<double> regenMs, exploreMs, transferMs, docMs;
    std::size_t regenBytes = 0;
};

} // namespace

void
runServeWorkload(const Context &ctx, Report &rep)
{
    std::printf("# serve-mixed: workers=%u, %d regen + %d explore "
                "requests per round\n",
                serveWorkers, regenPerRound, explorePerRound);
    Pools pools;
    const char *protocols[2] = {"msi", "moesi"};
    for (int p = 0; p < 2; ++p) {
        const std::string suffix = p ? "-moesi" : "";
        pools.regen[p] = readCells(ctx, "fig01-quick" + suffix);
        pools.golden[p] = readFile(
            std::string("tests/golden/fig01_double_vs_single") +
            (p ? ".moesi" : "") + ".stats.json");
        for (std::string &c : readCells(ctx, "fig05-quick" + suffix))
            pools.explore.push_back(std::move(c));
    }
    pools.exploreHits = sharedCells(pools);

    std::vector<double> setups;
    std::unique_ptr<Session> session;
    // A relative path: sun_path holds about 100 bytes, and the
    // benchmark runs from the checkout root.
    const std::string sockBase = ctx.outDir + "/serve-" +
        std::to_string(::getpid()) + "-";
    for (int i = 0; i < setUpRepeats; ++i) {
        session.reset();
        const double t0 = nowSeconds();
        session = setUp(pools, rep, sockBase + std::to_string(i) + ".sock");
        setups.push_back(nowSeconds() - t0);
    }
    std::printf("# set-up median %.4f s over %zu\n", median(setups),
                setups.size());

    // The seed drives the explore stream: pool order and fresh seeds.
    const std::vector<std::size_t> order =
        submissionOrder(pools.explore.size(), ctx.seed);
    std::mt19937_64 rng(ctx.seed * 0x9e3779b97f4a7c15ull + 1);
    std::set<std::uint64_t> usedSeeds;
    std::size_t cursor = 0;
    int regenTurn = 0;
    Samples smp;

    auto regenClient = [&](Report &r) {
        for (int i = 0; i < regenPerRound; ++i) {
            const int p = regenTurn++ % 2;
            Span req("serve.client.regen", static_cast<std::uint64_t>(
                                               regenTurn));
            const double t0 = nowSeconds();
            RunReply rr;
            {
                Span s("serve.protocol.transfer");
                rr = runRequest(session->regenFd, pools.regen[p]);
            }
            std::string doc;
            {
                Span s("core.sweep.stats_doc");
                const double d0 = nowSeconds();
                doc = assemble(rr.fragments);
                smp.docMs.push_back((nowSeconds() - d0) * 1e3);
            }
            const double t1 = nowSeconds();
            smp.regenMs.push_back((t1 - t0) * 1e3);
            if (rr.done)
                smp.transferMs.push_back((rr.lastFrame - t0) * 1e3);
            smp.regenBytes += rr.bytes;
            ++r.attempted;
            r.fail(regenFailures(rr, doc, pools.golden[p]),
                   std::string("regen ") + protocols[p] +
                       " differs from its golden");
        }
    };
    auto exploreClient = [&](Report &r) {
        for (int i = 0; i < explorePerRound; ++i) {
            std::vector<std::size_t> idx;
            std::vector<std::string> cells;
            for (int c = 0; c < cellsPerExplore; ++c) {
                idx.push_back(order[cursor++ % order.size()]);
                std::uint64_t seed = 0;
                do {
                    // seed=1 is the default and folds away.
                    seed = 2 + (rng() >> 24);
                } while (!usedSeeds.insert(seed).second);
                cells.push_back(pools.explore[idx.back()] +
                                " seed=" + std::to_string(seed));
            }
            Span req("serve.client.explore", cursor);
            const double t0 = nowSeconds();
            RunReply rr = runRequest(session->exploreFd, cells);
            smp.exploreMs.push_back((nowSeconds() - t0) * 1e3);
            ++r.attempted;
            r.fail(exploreFailures(rr, pools.twins, idx),
                   "explore reply differs from its seedless twin");
        }
    };

    // Rounds until the time budget is spent and every reported tail
    // percentile has enough samples (p99 needs 1000 in traced runs).
    const std::size_t need = ctx.trace ? 1000 : 100;
    const double start = nowSeconds();
    std::vector<double> walls, cpus, tracedWalls;
    for (int round = 0;; ++round) {
        const double elapsed = nowSeconds() - start;
        const bool enough = smp.regenMs.size() >= need &&
            smp.exploreMs.size() >= need;
        if ((elapsed >= ctx.seconds && enough) || elapsed > 140)
            break;
        const bool traced = ctx.trace && round % 2 == 1;
        spans().enable(traced);
        Report regenRep, exploreRep;
        const double w0 = nowSeconds(), c0 = processCpuSeconds();
        std::thread a(regenClient, std::ref(regenRep));
        std::thread b(exploreClient, std::ref(exploreRep));
        a.join();
        b.join();
        const double wall = nowSeconds() - w0;
        spans().enable(false);
        (traced ? tracedWalls : walls).push_back(wall);
        if (!traced)
            cpus.push_back(processCpuSeconds() - c0);
        rep.merge(regenRep);
        rep.merge(exploreRep);
    }
    std::printf("# %zu rounds, %zu regen and %zu explore requests\n",
                walls.size() + tracedWalls.size(), smp.regenMs.size(),
                smp.exploreMs.size());

    rep.set("setup_s", median(setups), "s");
    rep.set("wall_s", median(walls), "s");
    rep.set("cpu_s", median(cpus), "s");
    rep.set("peak_rss_mb", peakRssMb(), "MB");

    Report scratch;  // untraced runs print the latencies, not report them
    Report &lat = ctx.trace ? rep : scratch;
    reportPercentile(lat, "serve.regen_ms_p50", smp.regenMs, 50, "ms");
    reportPercentile(lat, "serve.regen_ms_p90", smp.regenMs, 90, "ms");
    reportPercentile(lat, "serve.explore_ms_p50", smp.exploreMs, 50, "ms");
    reportPercentile(lat, "serve.explore_ms_p90", smp.exploreMs, 90, "ms");
    if (!ctx.trace) {
        rep.merge(scratch);
        return;
    }
    reportPercentile(rep, "serve.regen_ms_p99", smp.regenMs, 99, "ms");
    reportPercentile(rep, "serve.explore_ms_p99", smp.exploreMs, 99,
                     "ms");
    rep.set("serve.regen.transfer_ms_p50", median(smp.transferMs), "ms");
    rep.set("core.sweep.stats_doc_ms_p50", median(smp.docMs), "ms");
    rep.set("serve.protocol.bytes_per_regen",
            static_cast<double>(smp.regenBytes) /
                static_cast<double>(smp.regenMs.size()),
            "bytes");
    rep.set("bench.tracing_overhead_s",
            median(tracedWalls) - median(walls), "s");

    // Server-side counters, over set-up and the timed phase.
    if (!serve::writeFrame(session->regenFd, "{\"op\": \"stats\"}"))
        fatal("cannot send stats op");
    std::string payload;
    if (serve::readFrame(session->regenFd, payload) !=
        serve::FrameStatus::Ok)
        fatal("no reply to the stats op");
    const StatsSnapshot st =
        StatsSnapshot::fromJson(parseJson(payload).at("stats"));
    const double hits = static_cast<double>(st.counter("serve.cache.hits"));
    const double lookups =
        hits + static_cast<double>(st.counter("serve.cache.misses"));
    auto c = [&](const char *p) {
        return static_cast<double>(st.counter(p));
    };
    rep.set("serve.result_cache.hit_pct",
            lookups ? 100.0 * hits / lookups : 0, "%");
    rep.set("serve.result_cache.evictions", c("serve.cache.evictions"),
            "count");
    rep.set("serve.result_cache.bytes", st.gauge("serve.cache.bytes"),
            "bytes");
    rep.set("serve.scheduler.cells_run", c("serve.sched.cellsRun"),
            "count");
    rep.set("serve.scheduler.max_inflight",
            st.gauge("serve.sched.maxInflightPerRequest"), "count");
    rep.set("serve.server.cell_errors", c("serve.cellErrors"), "count");
    rep.set("serve.server.bad_requests", c("serve.badRequests"),
            "count");

    // Canonicalization cost of the cells this workload sends.
    spans().enable(true);
    double canon = 0;
    std::size_t canonCells = 0;
    for (const auto *pool :
         {&pools.regen[0], &pools.regen[1], &pools.explore}) {
        for (const std::string &line : *pool) {
            Span s("core.cell.canon", ++canonCells);
            const double t0 = nowSeconds();
            Options o = parseConfigLine(line);
            SweepPoint pt = cellFromOptions(o);
            if (cacheKey(o, buildGitRev(), buildTypeName()).empty())
                rep.selfTestFailed("empty cache key");
            canon += nowSeconds() - t0;
        }
    }
    spans().enable(false);
    rep.set("core.cell.canon_us",
            canon * 1e6 / static_cast<double>(canonCells), "us");

    // The cells explore misses run, traced layer by layer in this
    // process: their fragments must equal what the server produced.
    // Their per-cell layer costs are reported; the sweep metrics would
    // describe this local loop, not the server, and are left out.
    GridPass local = runTracedCells(
        pools.explore, submissionOrder(pools.explore.size(), ctx.seed),
        serveWorkers);
    for (const auto &[name, m] : local.layer) {
        const bool sweepOnly = name.rfind("core.sweep.", 0) == 0 &&
            name != "core.sweep.point_json_ms";
        if (!sweepOnly && !rep.metrics.count(name))
            rep.set(name, m.value, m.unit);
    }
    const WorkCounts served = countFragments(pools.twins);
    if (!(local.counts == served)) {
        rep.selfTestFailed("traced explore-pool work counts differ from "
                           "the server's untraced ones");
    }
    rep.attempted += local.fragments.size();
    rep.fail(gridFailures(local.verified, local.fragments, &pools.twins),
             "traced explore-pool fragments differ from the server's");
    served.report(rep);
}

std::uint64_t
unverifiedFragments(const std::vector<std::string> &fragments)
{
    std::uint64_t n = 0;
    for (const std::string &f : fragments) {
        bool ok = false;
        try {
            const JsonValue doc = parseJson(f);
            const JsonValue *v = doc.find("verified");
            ok = v && v->isBool() && v->boolean;
        } catch (const std::exception &) {
            // An empty or malformed fragment is not verified.
        }
        n += ok ? 0 : 1;
    }
    return n;
}

void
serveCheckSelfTest(const Context &ctx, Report &rep)
{
    // Two real fragments from one tiny grid stand in for served ones.
    std::vector<std::string> cells = readCells(ctx, "fig01-quick");
    cells.resize(2);
    std::vector<SweepPoint> pts;
    for (const std::string &c : cells)
        pts.push_back(cellFromOptions(parseConfigLine(c)));
    std::vector<std::string> twins;
    for (const ExperimentResult &r : runSweep(pts, SweepConfig{1}))
        twins.push_back(sweepPointJson(r));
    const std::string golden = assemble(twins);

    RunReply good;
    good.done = true;
    good.fragments = twins;
    RunReply flipped = good;
    std::string &f = flipped.fragments[1];
    f[f.size() / 2] ^= 0x01;

    const std::vector<std::size_t> idx = {0, 1};
    RunReply goodMiss = good, flippedMiss = flipped;
    goodMiss.misses = flippedMiss.misses = 2;
    RunReply goodHit = good, flippedHit = flipped;
    goodHit.hits = flippedHit.hits = 2;

    Report t;
    t.fail(exploreFailures(goodMiss, twins, idx), "explore");
    t.fail(regenFailures(goodHit, assemble(goodHit.fragments), golden),
           "regen");
    if (t.failed != 0)
        rep.selfTestFailed("an intact served reply counted as failed");
    t.fail(exploreFailures(flippedMiss, twins, idx), "explore");
    if (t.failed != 1)
        rep.selfTestFailed("a flipped explore byte is not 1 failure");
    t.fail(regenFailures(flippedHit, assemble(flippedHit.fragments),
                         golden),
           "regen");
    if (t.failed != 2)
        rep.selfTestFailed("a flipped regen byte is not 1 failure");

    // A twin that failed verification, as setUp() checks them.
    static const std::string yes = "\"verified\": true";
    std::vector<std::string> unverified = twins;
    const std::size_t at = unverified[0].find(yes);
    if (unverifiedFragments(twins) != 0 || at == std::string::npos) {
        rep.selfTestFailed("intact twins count as unverified");
    } else {
        unverified[0].replace(at, yes.size(), "\"verified\": false");
        if (unverifiedFragments(unverified) != 1)
            rep.selfTestFailed("an unverified twin is not 1 failure");
    }
}

} // namespace slipbench
