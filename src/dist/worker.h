#ifndef MVG_DIST_WORKER_H_
#define MVG_DIST_WORKER_H_

// The worker-process layer of src/dist: forks workers connected to this
// process by AF_UNIX socketpairs, stops and reaps them, and reads framed
// messages from a peer process. Distributed training (dist/coordinator)
// and sharded serving (dist/shard_router) both run on it, so every
// process boundary spawns, reaps and reads in one place. Frames:
// util/framing.h, specified in docs/FORMATS.md.

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/framing.h"

namespace mvg {

/// One end of a framed connection to another process. `name` ("worker 1",
/// "shard 0", "coordinator") names the peer in every error.
struct Peer {
  int fd = -1;
  std::string name;
};

/// Writes one frame to the peer. A failed write (EPIPE once the peer
/// died) throws std::runtime_error naming the peer.
void SendTo(const Peer& peer, uint16_t type, uint64_t seq,
            const void* payload, size_t size);

/// Reads one frame from the peer. Throws std::runtime_error naming the
/// peer on a clean EOF (the peer "exited"), a torn frame, or a kMsgError
/// frame (the message carries the peer's text).
Frame ReadFrom(const Peer& peer);

/// ReadFrom that also requires the frame to be `type` with sequence
/// number `seq`, and throws naming the peer otherwise.
Frame ReadFrom(const Peer& peer, uint16_t type, uint64_t seq);

/// Round trip: sends (type, seq, payload) and returns the peer's reply,
/// which must be `reply_type` echoing `seq`.
Frame Call(const Peer& peer, uint16_t type, uint16_t reply_type, uint64_t seq,
           const void* payload = nullptr, size_t size = 0);

/// Forked worker processes, each connected to this process by a
/// socketpair. Destroying the fleet SIGKILLs and reaps every worker not
/// yet stopped, so an error path can neither orphan a worker nor leave
/// one blocked on a dead sibling.
class WorkerFleet {
 public:
  WorkerFleet() = default;
  WorkerFleet(WorkerFleet&&) = default;  // the moved-from fleet is empty.
  WorkerFleet& operator=(WorkerFleet&&) = delete;
  ~WorkerFleet();

  /// Forks the next worker, afterwards reached as peer(size() - 1). The
  /// child closes this process's ends of every live worker socket, of
  /// this fleet and of any other, zeroes MetricsRegistry::Global() so it reports only its own work,
  /// and runs `body` on its end of the socketpair. It _exits 0 when
  /// `body` returns; when `body` throws, it sends the message as a
  /// kMsgError frame and _exits 1. SIGPIPE is ignored first (children
  /// inherit that), so a dead peer surfaces as a failed write.
  void Spawn(std::string name, const std::function<void(int fd)>& body);

  size_t size() const { return workers_.size(); }
  const Peer& peer(size_t i) const { return workers_[i].peer; }
  /// -1 once the worker is stopped.
  pid_t pid(size_t i) const { return workers_[i].pid; }

  /// Closes this process's end of worker i's socket (the worker reads
  /// EOF), SIGKILLs it when `kill_first`, and waits for it to exit. A
  /// stopped worker is left as it is.
  void Stop(size_t i, bool kill_first);

 private:
  struct Worker {
    Peer peer;
    pid_t pid = -1;
  };
  std::vector<Worker> workers_;
};

}  // namespace mvg

#endif  // MVG_DIST_WORKER_H_
