#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"

namespace perfbench {

bool ServerProcess::Launch(const std::string& binary,
                           const std::vector<std::string>& args,
                           const std::string& log_path, double timeout_s,
                           std::string* error) {
  log_path_ = log_path;
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const uint64_t start = NowNanos();
  pid_ = fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The server dies
    // with the benchmark, whatever way the benchmark ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd < 0 || dup2(pipe_fds[1], STDOUT_FILENO) < 0 ||
        dup2(log_fd, STDERR_FILENO) < 0) {
      _exit(127);
    }
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];

  // Read the handshake line.
  std::string line;
  while (true) {
    double left = timeout_s - SecondsSince(start);
    if (left <= 0) {
      *error = "no PORT handshake within the timeout";
      Kill();
      return false;
    }
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char c;
    ssize_t n = read(stdout_fd_, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "server exited before the PORT handshake (see " + log_path +
               ")";
      Kill();
      return false;
    }
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "PORT %u", &port) == 1 && port > 0 &&
        port < 65536) {
      port_ = static_cast<uint16_t>(port);
      setup_seconds_ = SecondsSince(start);
      return true;
    }
    line.clear();
  }
}

long ServerProcess::LiveRecordsFromLog(double timeout_s) const {
  const uint64_t start = NowNanos();
  while (SecondsSince(start) < timeout_s) {
    std::ifstream in(log_path_);
    std::string line;
    while (std::getline(in, line)) {
      size_t at = line.find("listening on ");
      if (at == std::string::npos) continue;
      size_t paren = line.find('(', at);
      long records = -1;
      if (paren != std::string::npos &&
          std::sscanf(line.c_str() + paren, "(%ld records", &records) == 1) {
        return records;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

bool ServerProcess::Terminate(double timeout_s) {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  const uint64_t start = NowNanos();
  while (SecondsSince(start) < timeout_s) {
    int status = 0;
    pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (stdout_fd_ >= 0) close(stdout_fd_);
      stdout_fd_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return false;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
}

double ProcStatusMb(int pid, const char* key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      std::istringstream fields(line.substr(key_len + 1));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

uint64_t ProcIoField(int pid, const char* key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/io");
  std::string name;
  uint64_t value = 0;
  while (in >> name >> value) {
    if (name.size() == std::strlen(key) + 1 && name.back() == ':' &&
        name.compare(0, name.size() - 1, key) == 0) {
      return value;
    }
  }
  return 0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
