#include "bench/cfq_bench/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/client.h"
#include "server/json.h"

namespace cfq::cfqbench {

namespace {

constexpr int kStartTimeoutMs = 30000;
constexpr int kStopTimeoutMs = 30000;

// Waits up to `timeout_ms` for `pid` to exit; true (with its wait
// status in *status) once reaped.
bool WaitFor(pid_t pid, int timeout_ms, int* status) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    const pid_t done = waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    if (done < 0 || std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& flags,
    const std::string& log_path, const std::vector<int>& cpus) {
  cpu_set_t cpu_set;
  CPU_ZERO(&cpu_set);
  for (int cpu : cpus) CPU_SET(cpu, &cpu_set);
  std::vector<std::string> args = {binary, "--host=127.0.0.1", "--port=0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe(out) != 0) return Status::Internal("pipe failed");
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(out[0]);
    close(out[1]);
    return Status::Internal("cannot open daemon log '" + log_path + "'");
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    close(log_fd);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    if (!cpus.empty()) sched_setaffinity(0, sizeof(cpu_set), &cpu_set);
    dup2(out[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);
  close(log_fd);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, out[0]));

  // The daemon prints "listening on <host>:<port>" once it accepts.
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartTimeoutMs);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{daemon->stdout_fd_, POLLIN, 0};
    if (left <= 0 || poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      return Status::Internal("cfq_served did not report a port within " +
                              std::to_string(kStartTimeoutMs) + " ms");
    }
    char buf[256];
    const ssize_t n = read(daemon->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return Status::Internal("cfq_served exited during start-up (see " +
                              log_path + ")");
    }
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':', line.find('\n'));
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    return Status::Internal("unexpected cfq_served banner: " + line);
  }
  daemon->port_ = static_cast<uint16_t>(std::stoi(line.substr(colon + 1)));
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::Ok();
  auto client = server::Client::Connect("127.0.0.1", port_);
  if (client.ok()) {
    server::JsonValue::Object shutdown;
    shutdown["cmd"] = "shutdown";
    (void)client->Call(server::JsonValue(std::move(shutdown)));
  }
  int status = 0;
  if (!WaitFor(pid_, kStopTimeoutMs, &status)) {
    return Status::Internal("cfq_served did not drain within " +
                            std::to_string(kStopTimeoutMs) + " ms");
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("cfq_served exited with status " +
                            std::to_string(status));
  }
  return Status::Ok();
}

double Daemon::CpuSeconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the full line, i.e. 12 and 13 after ")".
  std::istringstream rest(text.substr(text.rfind(')') + 1));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Daemon::MemoryMb(const std::string& field) const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0;
}

}  // namespace cfq::cfqbench
