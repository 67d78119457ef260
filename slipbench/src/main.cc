/**
 * @file
 * slipbench entry point.
 *
 *   slipbench --workload fig05|l1-resident|serve-mixed --seed N
 *             --seconds S --trace 0|1 [--out DIR] [--cells DIR]
 *
 * Run from the checkout root: serve-mixed reads the committed goldens
 * under tests/golden.  --cells names the directory of the figure
 * benches' cell lists (see readCells()), which slipbench/run.py
 * writes before each run.
 *
 * Prints progress and provenance as `#` lines and, last, one JSON
 * object {"correct", "attempted", "failed", "metrics"} holding every
 * metric it measured (slipbench/run.py selects the set BENCHMARK.json
 * names for the trace mode).  --trace 1 also runs the self-tests,
 * records spans and writes them to <out>/spans-<workload>-seed<N>.json.
 */

#include "bench.hh"

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "core/build_info.hh"
#include "core/cell.hh"
#include "core/config_hash.hh"
#include "core/sweep.hh"
#include "obs/json.hh"
#include "sim/logging.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SLIPBENCH_SANITIZER_BUILD 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SLIPBENCH_SANITIZER_BUILD 1
#endif
#endif

#ifdef __clang__
#define SLIPBENCH_COMPILER "clang " __VERSION__
#else
#define SLIPBENCH_COMPILER "gcc " __VERSION__
#endif

using namespace slipsim;
using namespace slipbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "slipbench: %s\n"
                 "usage: slipbench --workload fig05|l1-resident|"
                 "serve-mixed --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--cells DIR]\n",
                 why);
    return 2;
}

/** Work counts and fragments of the fig05 --quick msi grid. */
std::pair<WorkCounts, std::vector<std::string>>
quickGrid(const Context &ctx, unsigned jobs)
{
    std::vector<SweepPoint> pts;
    for (const std::string &c : readCells(ctx, "fig05-quick"))
        pts.push_back(cellFromOptions(parseConfigLine(c)));
    WorkCounts w;
    std::vector<std::string> frags;
    for (const ExperimentResult &r : runSweep(pts, SweepConfig{jobs})) {
        w.add(r.snap);
        frags.push_back(sweepPointJson(r));
    }
    w.digest = fragmentDigest(frags);
    return {w, frags};
}

/** Self-tests of the grid checks and of jobs-independence. */
void
gridSelfTest(const Context &ctx, Report &rep)
{
    const auto [w1, f1] = quickGrid(ctx, 1);
    const auto [w4, f4] = quickGrid(ctx, 4);
    if (!(w1 == w4))
        rep.selfTestFailed("work counts differ between jobs=1 and jobs=4");

    const std::vector<bool> ok(f1.size(), true);
    if (gridFailures(ok, f4, &f1) != 0)
        rep.selfTestFailed("jobs=4 fragments differ from jobs=1");
    std::vector<std::string> flipped = f1;
    std::string &f = flipped[flipped.size() / 2];
    f[f.size() / 2] ^= 0x01;
    if (gridFailures(ok, flipped, &f1) != 1)
        rep.selfTestFailed("a flipped fragment byte is not 1 failure");
    std::vector<bool> bad = ok;
    bad[0] = false;
    if (gridFailures(bad, f1, &f1) != 1)
        rep.selfTestFailed("a failed verification is not 1 failure");
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    std::string traceArg = "0";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                ctx.workload = v;
            else if (a == "--seed")
                ctx.seed = std::stoull(v);
            else if (a == "--seconds")
                ctx.seconds = std::stod(v);
            else if (a == "--trace")
                traceArg = v;
            else if (a == "--out")
                ctx.outDir = v;
            else if (a == "--cells")
                ctx.cellsDir = v;
            else
                return usage(("unknown argument " + a).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + a).c_str());
        }
    }
    if (ctx.workload != "fig05" && ctx.workload != "l1-resident" &&
        ctx.workload != "serve-mixed")
        return usage("unknown or missing --workload");
    if (traceArg != "0" && traceArg != "1")
        return usage("--trace takes 0 or 1");
    if (!(ctx.seconds > 0))
        return usage("--seconds must be positive");
    ctx.trace = traceArg == "1";

#ifdef SLIPBENCH_SANITIZER_BUILD
    std::fprintf(stderr, "slipbench: refusing to report metrics from a "
                         "sanitizer build\n");
    return 3;
#endif

    setQuiet(true);
    ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
    const bool serveMixed = ctx.workload == "serve-mixed";
    const std::string provenance =
        "{\"workload\": \"" + ctx.workload +
        "\", \"seed\": " + std::to_string(ctx.seed) +
        ", \"trace\": " + traceArg +
        ", \"nproc\": " + std::to_string(ctx.nproc) +
        ", \"build_type\": \"" + jsonEscape(buildTypeName()) +
        "\", \"compiler\": \"" + jsonEscape(SLIPBENCH_COMPILER) +
        "\", \"git_rev\": \"" + jsonEscape(buildGitRev()) +
        "\", \"jobs\": " + std::to_string(workloadJobs(ctx)) +
        ", \"workers\": " + std::to_string(serveMixed ? serveWorkers : 0u) +
        "}";
    std::printf("# provenance %s\n", provenance.c_str());
    std::fflush(stdout);

    Report rep;
    try {
        if (ctx.trace) {
            gridSelfTest(ctx, rep);
            serveCheckSelfTest(ctx, rep);
        }
        if (serveMixed)
            runServeWorkload(ctx, rep);
        else
            runGridWorkload(ctx, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "slipbench: %s\n", e.what());
        return 1;
    }

    if (ctx.trace) {
        const std::string path = ctx.outDir + "/spans-" + ctx.workload +
            "-seed" + std::to_string(ctx.seed) + ".json";
        spans().write(path, provenance);
        std::printf("# %zu spans written to %s\n", spans().size(),
                    path.c_str());
        std::printf("# self time per layer (all traced spans):\n");
        for (const auto &[name, s] : spans().selfTimes())
            std::printf("#   %-28s %12.3f ms\n", name.c_str(), s * 1e3);
    }

    for (const auto &[name, m] : rep.metrics) {
        if (!std::isfinite(m.value))
            rep.selfTestFailed("metric " + name + " is not finite");
    }
    for (const std::string &why : rep.problems)
        std::printf("# problem: %s\n", why.c_str());
    std::printf("# %s: attempted %llu, failed %llu, self-tests %s\n",
                ctx.workload.c_str(),
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                rep.selfTestsOk ? "ok" : "FAILED");

    std::string out = "{\"correct\": ";
    out += rep.failed == 0 && rep.selfTestsOk ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(rep.attempted);
    out += ", \"failed\": " + std::to_string(rep.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : rep.metrics) {
        if (!std::isfinite(m.value))
            continue;  // JSON has no NaN; flagged as a self-test above
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", m.value);
        out += first ? "" : ", ";
        out += "\"" + jsonEscape(name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + jsonEscape(m.unit) + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
