#include "core/pretrained.hpp"

#include <cstdlib>
#include <filesystem>

#include "nn/checkpoint.hpp"
#include "nn/init.hpp"
#include "obs/io.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"

namespace shrinkbench {

// From core/experiment.hpp; forward-declared to keep this TU's include
// surface minimal. Lets a worker waiting on a peer's pretrain honor
// Ctrl-C / injected interrupts instead of sleeping through them.
bool sweep_interrupt_requested();

std::string default_cache_dir() {
  if (const char* env = std::getenv("SHRINKBENCH_CACHE")) return env;
  return ".sb_cache";
}

PretrainedStore::PretrainedStore(std::string cache_dir) : cache_dir_(std::move(cache_dir)) {
  std::filesystem::create_directories(cache_dir_);
}

TrainOptions default_pretrain_options() {
  // Adam at a hot initial rate annealed by cosine trains the scaled-down
  // ResNets to convergence (~0.85+ on the CIFAR stand-in); with a fixed
  // 1e-3 they underfit badly, magnitudes stay near their fan-in-dependent
  // init scales, and magnitude-based pruning degenerates — the pruning
  // phenomenology requires genuinely converged, overparameterized models.
  TrainOptions opts;
  opts.epochs = 60;
  opts.batch_size = 64;
  opts.optimizer = OptimizerKind::Adam;
  opts.lr = 3e-3f;
  opts.lr_schedule = LrSchedule::Cosine;
  opts.lr_min = 1.5e-4f;
  opts.patience = 0;  // cosine needs the full run; best weights restored
  opts.restore_best = true;
  return opts;
}

ModelPtr PretrainedStore::get(const DatasetBundle& bundle, const std::string& arch, int64_t width,
                              uint64_t init_seed, const TrainOptions& train_opts,
                              const std::string& tag) {
  ModelPtr model = make_model(arch, bundle.train.sample_shape(), bundle.train.num_classes, width);

  const std::string file = bundle.spec.name + "_s" + std::to_string(bundle.spec.seed) + "_" +
                           arch + "_w" + std::to_string(width) + "_i" +
                           std::to_string(init_seed) + "_" + tag + ".ckpt";
  const std::filesystem::path path = std::filesystem::path(cache_dir_) / file;

  if (std::filesystem::exists(path)) {
    obs::count("cache.pretrained.hit");
    load_checkpoint(*model, path.string());
    return model;
  }
  obs::count("cache.pretrained.miss");

  // Cross-process guard: fleet workers sharing one cache must train a
  // cold checkpoint exactly once. First process to flock <ckpt>.lock
  // trains; the rest block here, then find the finished .ckpt on the
  // double-check. A killed trainer's flock is released by the kernel, so
  // the next waiter takes over and resumes from the shared pretrain
  // checkpoint directory. (pretrain_mu_ already serializes threads of
  // this process.)
  std::filesystem::path lock_path = path;
  lock_path += ".lock";
  obs::FileLock lock;
  if (!lock.acquire(lock_path, /*poll_ms=*/200, [] { return sweep_interrupt_requested(); })) {
    if (!lock.open_failed()) {
      throw std::runtime_error("pretrain interrupted while waiting for " + lock_path.string());
    }
    // An unopenable lock file would never free up: train unguarded. A
    // racing peer may train the same model too; save_checkpoint's atomic
    // rename keeps the shared .ckpt whole either way.
    SB_LOG_WARN("pretrain", "training %s without the cross-process lock", path.string().c_str());
  }
  if (std::filesystem::exists(path)) {
    // A peer finished it while we waited for the lock. Unlink the lock
    // file too: the peer unlinked the one it held, but our try_acquire
    // may have already recreated it.
    obs::count("cache.pretrained.wait_hit");
    lock.release(/*unlink_file=*/true);
    load_checkpoint(*model, path.string());
    return model;
  }

  Rng rng(init_seed);
  init_model(*model, rng);
  TrainOptions opts = train_opts;
  opts.loader_seed = init_seed ^ 0x9e3779b97f4a7c15ULL;
  // Pretraining is the longest phase, so it gets its own resumable
  // checkpoint directory (keyed like the final .ckpt file), cleaned up
  // once the finished model is cached.
  std::filesystem::path ckpt_dir;
  if (opts.checkpoint_dir.empty()) {
    if (const char* env = std::getenv("SB_CKPT_DIR")) {
      ckpt_dir = env;
    } else {
      ckpt_dir = std::filesystem::path(cache_dir_) / "ckpt";
    }
    ckpt_dir /= "pretrain_" + path.stem().string();
    opts.checkpoint_dir = ckpt_dir.string();
  } else {
    ckpt_dir = opts.checkpoint_dir;
  }
  SB_LOG_INFO("pretrain", "%s w=%lld on %s (tag=%s)...", arch.c_str(),
              static_cast<long long>(width), bundle.spec.name.c_str(), tag.c_str());
  const TrainHistory hist = train_model(*model, bundle, opts);
  SB_LOG_INFO("pretrain", "done: best val top1 %.4f (epoch %d)", hist.best_val_top1,
              hist.best_epoch);
  save_checkpoint(*model, path.string());
  std::error_code ec;
  if (std::filesystem::remove_all(ckpt_dir, ec) > 0 && !ec) obs::count("ckpt.cleaned");
  lock.release(/*unlink_file=*/true);
  return model;
}

}  // namespace shrinkbench
