// A cfq_served child process for one benchmark run.
//
// Start() spawns the daemon on an ephemeral loopback port and returns
// once it printed its "listening on" line; Stop() drains it through the
// protocol's `shutdown` command and reaps it. The destructor kills and
// reaps a daemon that is still running, so no error path leaves a
// process behind. CPU time and peak RSS come from /proc/<pid>, the
// daemon's own accounting as the kernel sees it.

#ifndef CFQ_BENCH_CFQ_BENCH_DAEMON_H_
#define CFQ_BENCH_CFQ_BENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace cfq::cfqbench {

class Daemon {
 public:
  // Spawns `binary --host=127.0.0.1 --port=0 <flags>` on the CPUs in
  // `cpus` (all when empty); the daemon's stderr goes to `log_path`.
  // Fails when it exits or stays silent for 30 seconds.
  static Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& flags,
      const std::string& log_path, const std::vector<int>& cpus);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }

  // Sends `shutdown` and waits for exit; fails unless the daemon exits
  // 0 within 30 seconds (it is killed then).
  Status Stop();

  // User + system CPU seconds the daemon has used so far.
  double CpuSeconds() const;
  // A memory field of /proc/<pid>/status ("VmRSS:", "VmHWM:") in MiB.
  double MemoryMb(const std::string& field) const;

 private:
  Daemon(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace cfq::cfqbench

#endif  // CFQ_BENCH_CFQ_BENCH_DAEMON_H_
