// sb_benchmark: runs one workload of the end-to-end benchmark and prints its
// report as one JSON line. run.py builds this binary, runs each workload in
// its own process, and turns the reports into the benchmark's output.
//
//   sb_benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage or set-up error.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace sbbench;
  try {
    const Args args = parse_args(argc, argv);
    const std::string run_name = args.workload + ".seed" + std::to_string(args.seed);
    // Scratch caches and checkpoints for this process only, removed at exit.
    const std::filesystem::path work = std::filesystem::path(args.out_dir) / "work" /
                                       (run_name + ".pid" + std::to_string(getpid()));
    std::filesystem::create_directories(work);
    struct RemoveOnExit {
      std::filesystem::path dir;
      ~RemoveOnExit() {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
    } cleanup{work};

    Report report;
    const std::string exec_prefix = "exec_b32_";
    if (args.workload == "train_dense") {
      report = run_train_dense(args, work);
    } else if (args.workload == "prune_finetune") {
      report = run_prune_finetune(args, work);
    } else if (args.workload == "serve_c1") {
      report = run_serve_c1(args);
    } else if (args.workload.rfind(exec_prefix, 0) == 0) {
      report = run_exec_b32(args, args.workload.substr(exec_prefix.size()));
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    if (args.trace) {
      const std::string path = (std::filesystem::path(args.out_dir) / (run_name + ".trace.json"));
      report.check(spans::write_chrome_trace(path), "trace written to " + path);
    }
    std::printf("%s\n", report_json(args, report).c_str());
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sb_benchmark: %s\n", e.what());
    return 2;
  }
}
