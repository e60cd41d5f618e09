#pragma once
// A pwss_serve child process: started with pipes on stdout and stderr,
// killed and reaped by the destructor if the benchmark leaves early, and
// otherwise stopped with SIGTERM and reaped with wait4 for its resource
// usage (CPU, context switches, peak RSS).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class ServerProcess {
 public:
  struct Exit {
    int status = -1;  ///< the wait status
    rusage usage{};
    std::string stderr_text;
  };

  ServerProcess(const std::string& binary, const std::vector<std::string>& args) {
    int out[2], err[2];
    if (pipe2(out, O_CLOEXEC) != 0 || pipe2(err, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe failed");
    }
    std::vector<std::string> argv_s{binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec. The server
      // dies with the benchmark if the benchmark dies first.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      dup2(out[1], 1);
      dup2(err[1], 2);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    close(err[1]);
    out_ = out[0];
    err_ = err[0];
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) close(out_);
    if (err_ >= 0) close(err_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// The next line of the server's stdout; throws after `timeout_ms` or
  /// when the server closes its stdout first.
  std::string read_line(int timeout_ms) {
    std::string line;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ULL;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= deadline) throw std::runtime_error("server start timed out");
      pollfd p{out_, POLLIN, 0};
      const int left = static_cast<int>((deadline - now) / 1000000ULL) + 1;
      if (poll(&p, 1, left) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      char c;
      const ssize_t n = read(out_, &c, 1);
      if (n == 1) {
        if (c == '\n') return line;
        line += c;
      } else if (n == 0) {
        throw std::runtime_error("server exited before serving: " + line);
      }
    }
  }

  /// SIGTERM (graceful drain), then reads stderr to its end and reaps.
  Exit stop() {
    Exit e;
    kill(pid_, SIGTERM);
    char buf[4096];
    for (;;) {
      const ssize_t n = read(err_, buf, sizeof(buf));
      if (n > 0) {
        e.stderr_text.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    while (wait4(pid_, &e.status, 0, &e.usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return e;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  int err_ = -1;
};

/// The unsigned value after `key=` in `text` (0 when absent).
inline std::uint64_t stat_field(const std::string& text, const std::string& key) {
  const auto at = text.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size() + 2));
}

}  // namespace perfbench
