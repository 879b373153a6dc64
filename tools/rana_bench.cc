/**
 * @file
 * Unified benchmark driver: runs the registered table/figure
 * harnesses (bench/harness.hh). `rana_bench --list` enumerates
 * them; --match=<regex> selects a subset; --mode=correctness|perf
 * switches between validation runs and perf-template emission. One
 * BENCH_<harness>.json artifact is written per harness run.
 */

#include "../bench/harness.hh"

int
main(int argc, char **argv)
{
    return rana::bench::benchMain(argc, argv);
}
