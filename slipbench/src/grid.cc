/**
 * @file
 * Grid workloads: `fig05` (the fig05_slipstream_speedup default grid
 * at jobs=min(4,nproc)) and `l1-resident` (its cg/mg/ocean/sor/
 * water-sp cells at jobs=1).
 *
 * Every pass starts from cold simulated caches and is timed whole: a
 * figure user pays each cell's set-up, simulation, verification and
 * JSON on every run, so there is no untimed warm-up pass.  Untraced
 * passes run the cells canonicalized at set-up through runSweep();
 * traced passes canonicalize and call the layers one by one
 * (runTracedCells) and must produce the same fragments.
 */

#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "ckpt/cell_run.hh"
#include "core/build_info.hh"
#include "core/cell.hh"
#include "core/config_hash.hh"
#include "core/sweep.hh"
#include "workloads/workload.hh"

using namespace slipsim;

namespace slipbench
{

namespace
{

/** Kernels whose fig05 cells mostly hit the simulated L1. */
bool
l1Resident(const std::string &line)
{
    const std::string wl = line.substr(line.rfind("workload=") + 9);
    return wl == "cg" || wl == "mg" || wl == "ocean" || wl == "sor" ||
        wl == "water-sp";
}

std::vector<std::string>
gridCells(const Context &ctx)
{
    std::vector<std::string> cells = readCells(ctx, "fig05");
    if (ctx.workload == "l1-resident") {
        cells.erase(std::remove_if(cells.begin(), cells.end(),
                                   [](const std::string &c) {
                                       return !l1Resident(c);
                                   }),
                    cells.end());
    }
    return cells;
}

/** The grid's cells as the sweep takes them (grid order). */
std::vector<SweepPoint>
canonicalize(const std::vector<std::string> &lines)
{
    std::vector<SweepPoint> pts;
    pts.reserve(lines.size());
    for (const std::string &line : lines)
        pts.push_back(cellFromOptions(parseConfigLine(line)));
    return pts;
}

/** One untraced pass: runSweep -> point fragments. */
GridPass
untracedPass(const std::vector<SweepPoint> &points,
             const std::vector<std::size_t> &order, unsigned jobs)
{
    GridPass p;
    const std::size_t n = points.size();
    const double w0 = nowSeconds(), c0 = processCpuSeconds();
    std::vector<SweepPoint> pts;
    pts.reserve(n);
    for (std::size_t k : order)
        pts.push_back(points[k]);
    std::vector<ExperimentResult> res = runSweep(pts, SweepConfig{jobs});
    p.fragments.resize(n);
    p.verified.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        p.fragments[order[j]] = sweepPointJson(res[j]);
        p.verified[order[j]] = res[j].verified;
    }
    p.wall = nowSeconds() - w0;
    p.cpu = processCpuSeconds() - c0;
    for (const ExperimentResult &r : res)
        p.counts.add(r.snap);
    p.counts.digest = fragmentDigest(p.fragments);
    return p;
}

} // namespace

GridPass
runTracedCells(const std::vector<std::string> &lines,
               const std::vector<std::size_t> &order, unsigned jobs)
{
    const std::size_t n = lines.size();
    GridPass out;
    out.fragments.resize(n);
    std::vector<StatsSnapshot> snaps(n);
    // One byte per cell: workers write these concurrently, which a
    // packed std::vector<bool> would turn into a data race.
    std::vector<char> slip(n), verified(n);

    spans().enable(true);
    const double w0 = nowSeconds(), c0 = processCpuSeconds();
    std::uint64_t sweepId = 0;
    {
        Span sweep("core.sweep.run");
        sweepId = sweep.spanId();
        std::vector<std::function<void()>> tasks;
        tasks.reserve(n);
        for (std::size_t k : order) {
            tasks.push_back([&, k]() {
                const std::uint64_t op = k + 1;
                Span cell("core.sweep.cell", op, sweepId);
                SweepPoint pt;
                std::string key;
                {
                    Span s("core.cell.canon", op);
                    Options o = parseConfigLine(lines[k]);
                    pt = cellFromOptions(o);
                    key = cacheKey(o, buildGitRev(), buildTypeName());
                }
                std::unique_ptr<Workload> wl;
                std::unique_ptr<CellRun> run;
                {
                    Span s("ckpt.cell_run.setup", op);
                    wl = makeWorkload(pt.workload, pt.opts);
                    run = std::make_unique<CellRun>(*wl, pt.machine,
                                                    pt.cfg, pt.tickLimit);
                }
                {
                    Span s("ckpt.cell_run.run", op);
                    run->runTo(maxTick);
                }
                // Verification runs under its own span, so finish()
                // is timed without it.
                run->setVerify(false);
                ExperimentResult r;
                {
                    Span s("ckpt.cell_run.finish", op);
                    r = run->finish();
                }
                if (pt.cfg.verify) {
                    Span s("workloads.verify", op);
                    r.verified = wl->verify(run->system().functional());
                }
                {
                    Span s("core.sweep.point_json", op);
                    out.fragments[k] = sweepPointJson(r);
                }
                verified[k] = r.verified && !key.empty();
                slip[k] = pt.cfg.mode == Mode::Slipstream;
                snaps[k] = std::move(r.snap);
            });
        }
        runParallel(std::move(tasks), jobs);
    }
    out.wall = nowSeconds() - w0;
    out.cpu = processCpuSeconds() - c0;
    spans().enable(false);
    out.verified.assign(verified.begin(), verified.end());

    for (const StatsSnapshot &s : snaps)
        out.counts.add(s);
    out.counts.digest = fragmentDigest(out.fragments);

    // Per-layer totals of this pass, from its spans only.
    const std::vector<SpanRec> all = spans().all();
    std::vector<double> cellMs;
    double busy = 0, runConv = 0, runSlip = 0, setup = 0, finish = 0,
           verify = 0, pointJson = 0, canon = 0;
    std::vector<bool> inPass(all.size() + 1);
    for (const SpanRec &r : all) {
        if (r.id < sweepId)
            continue;
        const double d = r.end - r.start;
        if (r.name == "core.sweep.cell" && r.parent == sweepId) {
            inPass[r.id] = true;
            busy += d;
            cellMs.push_back(d * 1e3);
            continue;
        }
        if (!r.parent || !inPass[r.parent])
            continue;
        const std::size_t k = r.op - 1;
        if (r.name == "ckpt.cell_run.run")
            (slip[k] ? runSlip : runConv) += d;
        else if (r.name == "ckpt.cell_run.setup")
            setup += d;
        else if (r.name == "ckpt.cell_run.finish")
            finish += d;
        else if (r.name == "workloads.verify")
            verify += d;
        else if (r.name == "core.sweep.point_json")
            pointJson += d;
        else if (r.name == "core.cell.canon")
            canon += d;
    }
    const double workers =
        static_cast<double>(std::min<std::size_t>(resolveJobs(jobs), n));
    const double runS = runConv + runSlip;
    const double accesses = static_cast<double>(out.counts.l1Hits +
                                                out.counts.l1Misses);
    auto &L = out.layer;
    L["core.sweep.busy_s"] = {busy, "s"};
    L["core.sweep.efficiency"] = {busy / (out.wall * workers), "ratio"};
    L["core.sweep.cell_ms_p50"] = {median(cellMs), "ms"};
    L["core.sweep.cell_ms_max"] = {
        cellMs.empty() ? 0 : *std::max_element(cellMs.begin(),
                                               cellMs.end()),
        "ms"};
    L["ckpt.cell_run.run_s"] = {runS, "s"};
    L["ckpt.cell_run.run_s.conv"] = {runConv, "s"};
    L["ckpt.cell_run.run_s.slip"] = {runSlip, "s"};
    L["ckpt.cell_run.setup_ms"] = {setup * 1e3, "ms"};
    L["ckpt.cell_run.finish_ms"] = {finish * 1e3, "ms"};
    L["workloads.verify_ms"] = {verify * 1e3, "ms"};
    L["core.sweep.point_json_ms"] = {pointJson * 1e3, "ms"};
    L["core.cell.canon_us"] = {
        n ? canon * 1e6 / static_cast<double>(n) : 0, "us"};
    L["sim.ns_per_event"] = {
        out.counts.events
            ? runS * 1e9 / static_cast<double>(out.counts.events)
            : 0,
        "ns"};
    L["cpu.ns_per_access"] = {accesses ? runS * 1e9 / accesses : 0, "ns"};
    return out;
}

unsigned
workloadJobs(const Context &ctx)
{
    if (ctx.workload == "fig05")
        return std::min(4u, ctx.nproc);
    return ctx.workload == "serve-mixed" ? serveWorkers : 1u;
}

void
runGridWorkload(const Context &ctx, Report &rep)
{
    const unsigned jobs = workloadJobs(ctx);
    std::printf("# grid %s: jobs=%u\n", ctx.workload.c_str(), jobs);

    // Set-up is all a pass needs before it starts: the figure's cell
    // list, loaded and canonicalized.  One set-up takes about a
    // millisecond, too little to time alone on a shared host whose
    // speed changes within a second, so it repeats in batches of at
    // least 100 ms; setup_s is the median over batches of the mean
    // time per set-up.
    std::vector<double> setups;
    std::vector<std::string> lines;
    std::vector<SweepPoint> points;
    for (int batch = 0; batch < 9; ++batch) {
        const double t0 = nowSeconds();
        double t = t0;
        int reps = 0;
        do {
            lines = gridCells(ctx);
            points = canonicalize(lines);
            ++reps;
            t = nowSeconds();
        } while (t - t0 < 0.1);
        setups.push_back((t - t0) / reps);
    }
    std::printf("# %zu cells, set-up median %.6f s\n", lines.size(),
                median(setups));

    // Passes run while another one fits in the time budget, and at
    // least three, so the median discards one pass slowed by the host
    // and fragments are compared between passes.  A traced invocation
    // alternates untraced and traced passes.
    const double start = nowSeconds();
    std::vector<double> walls, cpus, tracedWalls, allWalls;
    std::vector<std::map<std::string, Metric>> tracedLayers;
    std::vector<std::string> reference;
    WorkCounts refCounts;
    for (int pass = 0;; ++pass) {
        const double elapsed = nowSeconds() - start;
        if (pass >= 3 && elapsed + median(allWalls) > ctx.seconds)
            break;

        const bool traced = ctx.trace && pass % 2 == 1;
        const std::vector<std::size_t> order =
            submissionOrder(lines.size(), ctx.seed, pass);
        GridPass p = traced ? runTracedCells(lines, order, jobs)
                            : untracedPass(points, order, jobs);
        std::printf("# pass %d%s: wall %.3f s, cpu %.3f s\n", pass,
                    traced ? " (traced)" : "", p.wall, p.cpu);
        std::fflush(stdout);
        allWalls.push_back(p.wall);
        if (traced) {
            tracedWalls.push_back(p.wall);
            tracedLayers.push_back(std::move(p.layer));
        } else {
            walls.push_back(p.wall);
            cpus.push_back(p.cpu);
        }

        rep.attempted += lines.size();
        const std::uint64_t bad = gridFailures(
            p.verified, p.fragments,
            reference.empty() ? nullptr : &reference);
        rep.fail(bad, "pass " + std::to_string(pass) + ": " +
                          std::to_string(bad) +
                          " cells unverified or differing from pass 0");
        if (reference.empty()) {
            reference = std::move(p.fragments);
            refCounts = p.counts;
        } else if (!(p.counts == refCounts)) {
            rep.selfTestFailed("work counts of pass " +
                               std::to_string(pass) +
                               (traced ? " (traced)" : "") +
                               " differ from pass 0");
        }
    }

    rep.set("setup_s", median(setups), "s");
    rep.set("wall_s", median(walls), "s");
    rep.set("cpu_s", median(cpus), "s");
    rep.set("peak_rss_mb", peakRssMb(), "MB");

    if (ctx.trace) {
        // Per-layer timings: median over the traced passes.
        std::map<std::string, std::vector<double>> byName;
        std::map<std::string, std::string> units;
        for (const auto &layer : tracedLayers) {
            for (const auto &[name, m] : layer) {
                byName[name].push_back(m.value);
                units[name] = m.unit;
            }
        }
        for (const auto &[name, v] : byName)
            rep.set(name, median(v), units[name]);
        refCounts.report(rep);

        // A figure user who asks for stats-json= pays one document
        // assembly over the grid's fragments.
        std::vector<double> docMs;
        spans().enable(true);
        for (int i = 0; i < 3; ++i) {
            Span s("core.sweep.stats_doc");
            const double t0 = nowSeconds();
            std::ostringstream doc;
            writeStatsDoc(doc, reference);
            docMs.push_back((nowSeconds() - t0) * 1e3);
        }
        spans().enable(false);
        rep.set("core.sweep.stats_doc_ms_p50", median(docMs), "ms");
        rep.set("bench.tracing_overhead_s",
                median(tracedWalls) - median(walls), "s");
    }
}

} // namespace slipbench
