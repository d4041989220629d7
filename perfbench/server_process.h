// A child ssjoin_server process: launched with an ephemeral port, timed
// from fork to its "PORT <n>" handshake, inspected through /proc, and
// always reaped — the destructor SIGKILLs and waits for a server that is
// still running, so no exit path of the benchmark leaves one behind.
#ifndef SSJOIN_PERFBENCH_SERVER_PROCESS_H_
#define SSJOIN_PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Forks `binary` with `args` (stdout is the handshake pipe, stderr
  /// goes to `log_path`) and waits up to `timeout_s` for the handshake.
  /// On failure returns false with the reason in `error`; the child, if
  /// any, is already killed and reaped.
  bool Launch(const std::string& binary, const std::vector<std::string>& args,
              const std::string& log_path, double timeout_s,
              std::string* error);

  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Fork to handshake, in seconds.
  double setup_seconds() const { return setup_seconds_; }

  /// Live record count from the server's "listening on ... (N records"
  /// log line; -1 when the line never appeared.
  long LiveRecordsFromLog(double timeout_s) const;

  /// SIGTERM, then wait up to `timeout_s` for a clean exit. Returns true
  /// only for exit status 0; a server that does not exit in time is
  /// SIGKILLed.
  bool Terminate(double timeout_s);

 private:
  void Kill();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  double setup_seconds_ = 0;
  std::string log_path_;
};

}  // namespace perfbench

#endif  // SSJOIN_PERFBENCH_SERVER_PROCESS_H_
