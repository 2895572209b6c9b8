/**
 * @file
 * The benchmark binary. perfbench/run.py builds it and runs
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --work-dir <dir> --out-dir <dir> [--threads <n>]
 *
 * With --trace 0 it measures the end-to-end metrics untraced; with
 * --trace 1 it makes the traced run and reports the per-layer metrics
 * the workload exercises (run.py reports the rest as 0). The last
 * line of standard output is the JSON result; the exit code is
 * nonzero when any output check failed.
 */

#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.hh"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep_private|mix4_streamed|serve_open --seed N "
                 "--seconds S --trace 0|1 --work-dir D --out-dir D "
                 "[--threads N]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            o.trace = val == "1";
        else if (key == "--threads")
            o.threads = static_cast<unsigned>(
                std::strtoul(val.c_str(), nullptr, 10));
        else if (key == "--work-dir")
            o.work_dir = val;
        else if (key == "--out-dir")
            o.out_dir = val;
        else
            usage(("unknown option " + key).c_str());
    }
    if (o.workload.empty() || o.work_dir.empty() || o.out_dir.empty())
        usage("--workload, --work-dir and --out-dir are required");
    if (!(o.seconds > 0.0) || o.threads == 0)
        usage("--seconds and --threads must be positive");
    return o;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts = parse(argc, argv);
    std::filesystem::create_directories(opts.work_dir);
    std::filesystem::create_directories(opts.out_dir);

    Report report;
    if (opts.workload == "sweep_private")
        runSweepPrivate(opts, report);
    else if (opts.workload == "mix4_streamed")
        runMix4Streamed(opts, report);
    else if (opts.workload == "serve_open")
        runServeOpen(opts, report);
    else
        usage(("unknown workload " + opts.workload).c_str());

    std::error_code ec;
    std::filesystem::remove_all(opts.work_dir, ec);

    std::printf("%s %s seed %llu:\n", opts.workload.c_str(),
                opts.trace ? "traced" : "untraced",
                static_cast<unsigned long long>(opts.seed));
    report.printTable();
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
