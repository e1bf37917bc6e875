// The benchmark's workloads. Each makes its inputs from the run seed, sets
// up several times (set-up time is reported as the median), measures its
// operation for the run's window, checks the outputs, and, in a traced run,
// probes the layers underneath with spans to report per-layer shares.
// README.md in this directory says why each workload exists.
#pragma once

#include <filesystem>
#include <string>

#include "harness.hpp"

namespace sbbench {

Report run_train_dense(const Args& args, const std::filesystem::path& work);
Report run_prune_finetune(const Args& args, const std::filesystem::path& work);
Report run_serve_c1(const Args& args);
/// mode: "dense", "csr" or "shrunk".
Report run_exec_b32(const Args& args, const std::string& mode);

}  // namespace sbbench
