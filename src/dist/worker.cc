#include "dist/worker.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace mvg {

namespace {

[[noreturn]] void Fail(const Peer& peer, const std::string& what) {
  throw std::runtime_error("dist: " + peer.name + " " + what);
}

std::string Errno(const char* call) {
  return std::string(call) + " failed: " + std::strerror(errno);
}

}  // namespace

void SendTo(const Peer& peer, uint16_t type, uint64_t seq,
            const void* payload, size_t size) {
  try {
    WriteFrame(peer.fd, type, seq, payload, size);
  } catch (const std::exception& e) {
    Fail(peer, std::string("transport error: ") + e.what());
  }
}

Frame ReadFrom(const Peer& peer) {
  Frame f;
  bool ok = false;
  try {
    ok = ReadFrame(peer.fd, &f);
  } catch (const std::exception& e) {
    Fail(peer, std::string("transport error: ") + e.what());
  }
  if (!ok) Fail(peer, "exited");
  if (f.type == kMsgError) Fail(peer, "failed: " + f.payload);
  return f;
}

Frame ReadFrom(const Peer& peer, uint16_t type, uint64_t seq) {
  Frame f = ReadFrom(peer);
  if (f.type != type || f.seq != seq) {
    Fail(peer, "sent frame type " + std::to_string(f.type) + " seq " +
                   std::to_string(f.seq) + ", want type " +
                   std::to_string(type) + " seq " + std::to_string(seq));
  }
  return f;
}

Frame Call(const Peer& peer, uint16_t type, uint16_t reply_type, uint64_t seq,
           const void* payload, size_t size) {
  SendTo(peer, type, seq, payload, size);
  return ReadFrom(peer, reply_type, seq);
}

void WorkerFleet::Spawn(std::string name,
                        const std::function<void(int fd)>& body) {
  signal(SIGPIPE, SIG_IGN);
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("dist: " + Errno("socketpair"));
  }
  const pid_t pid = fork();
  if (pid < 0) {
    const std::string error = Errno("fork");
    close(sv[0]);
    close(sv[1]);
    throw std::runtime_error("dist: " + error);
  }
  if (pid == 0) {
    close(sv[0]);
    for (const Worker& w : workers_) {
      if (w.peer.fd >= 0) close(w.peer.fd);
    }
    obs::MetricsRegistry::Global().ZeroAllValues();
    try {
      body(sv[1]);
      _exit(0);
    } catch (const std::exception& e) {
      try {
        WriteFrame(sv[1], kMsgError, 0, std::string(e.what()));
      } catch (...) {
        // The parent is gone; nothing is left to report to.
      }
    } catch (...) {
      // No message to forward; the exit status reports the failure.
    }
    _exit(1);
  }
  close(sv[1]);
  workers_.push_back({Peer{sv[0], std::move(name)}, pid});
}

void WorkerFleet::Stop(size_t i, bool kill_first) {
  Worker& w = workers_[i];
  if (w.peer.fd >= 0) {
    close(w.peer.fd);
    w.peer.fd = -1;
  }
  if (w.pid > 0) {
    if (kill_first) kill(w.pid, SIGKILL);
    int status = 0;
    while (waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
  }
}

WorkerFleet::~WorkerFleet() {
  for (size_t i = 0; i < workers_.size(); ++i) Stop(i, /*kill_first=*/true);
}

}  // namespace mvg
