// Epoll-based network front-end over the serving stack: the step from an
// in-process submit() API to a socket millions of clients could actually
// hit.
//
// One event-loop thread owns a non-blocking listen socket, an epoll set and
// every connection's read/write state machine:
//
//   readable  -> recv into the connection's read buffer, decode as many
//                complete request frames as are buffered (wire.hpp is
//                incremental — a frame split across recv() boundaries just
//                waits for more bytes), resolve each against ONE registry
//                snapshot taken per drain (no per-request registry locking),
//                charge the tenant quota, and submit to the scheduler on the
//                existing per-partition MPMC admission path.
//   complete  -> the scheduler's on_done callback (dispatcher thread) encodes
//                the response frame, hands it to the loop through a
//                completion queue and rings an eventfd — the loop never
//                blocks on model execution, dispatchers never touch epoll.
//   writable  -> flush the connection's write buffer; partial writes keep
//                the remainder buffered and arm EPOLLOUT until drained.
//
// Error model: the wire layer only SERIALIZES `handle.status()` — every
// terminal StatusCode maps 1:1 onto a WireCode (shed -> RESOURCE_EXHAUSTED,
// deadline -> DEADLINE_EXCEEDED, quarantine/shutdown -> UNAVAILABLE, kernel
// fault -> INTERNAL), so the server invents no error handling of its own.
// Malformed frames (bad magic/version/oversized length) poison the byte
// stream and close the connection after a best-effort error response; the
// net_write fault site injects short writes and connection resets on the
// response path, and the conn_accept site closes accepted connections at
// the door, for chaos coverage.
//
// Health + drain (wire v2): a kFrameHealth probe on any connection is
// answered inline with the scheduler's terminal-accounting counters, every
// shard's liveness record (queue depth / quarantine / overload level /
// heartbeat) and the server's draining flag. begin_drain() — also reachable
// via SIGTERM/SIGINT once install_signal_handlers() ran — releases the
// listen port immediately, answers every NEW submit kUnavailable
// ("draining"), keeps serving health probes, flushes all in-flight
// responses, then exits the loop. Replayed request ids (a hardened client
// retrying on a fresh connection) are deduplicated while the original is
// still in flight, so a retry never double-executes a request the server
// already owns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.hpp"
#include "net/quota.hpp"
#include "serving/model_registry.hpp"
#include "serving/scheduler.hpp"

namespace plt::net {

struct ServerConfig {
  // PLT_NET_PORT: TCP port to bind on 127.0.0.1 (0 = kernel-assigned
  // ephemeral port; read it back via Server::port() — the test/CI mode).
  int port = 0;
  // PLT_NET_MAX_CONNS: accepted-connection cap. At the cap, new accepts are
  // closed immediately (the TCP equivalent of load shedding at the door).
  int max_conns = 256;
  // PLT_NET_TENANT_QPS: per-tenant sustained request rate (0 = unlimited).
  // Over-quota requests are answered RESOURCE_EXHAUSTED on the wire before
  // touching the scheduler.
  std::int64_t tenant_qps = 0;
  // PLT_NET_TENANT_BURST: token-bucket burst cap (0 = same as tenant_qps).
  std::int64_t tenant_burst = 0;
  // PLT_NET_TENANT_MAX: bound on tracked tenant buckets; at the cap the
  // LRU bucket is evicted (idle-full preferred — see quota.hpp). 0 =
  // unbounded.
  std::int64_t tenant_max = 4096;

  // Reads the PLT_NET_* environment knobs (range-validated; bad values warn
  // and fall back to the defaults above).
  static ServerConfig from_env();
};

class Server {
 public:
  // The registry and scheduler must outlive the server; the server must be
  // stop()ed (or destroyed) before the scheduler shuts down ONLY if callers
  // need every queued response flushed — pending requests resolve through
  // the scheduler's own drain either way.
  Server(serving::ModelRegistry& registry,
         serving::RequestScheduler& scheduler,
         ServerConfig cfg = ServerConfig::from_env());
  ~Server();  // implies stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1:cfg.port, starts the event loop thread. kUnavailable on
  // socket/bind/listen failure (the loop is not started).
  Status start();

  // Graceful stop: stops accepting and reading (no new submits), waits for
  // every in-flight request's response to be queued, flushes write buffers
  // best-effort, closes every connection, joins the loop. Idempotent.
  void stop();

  // Graceful drain, the SIGTERM semantics: release the listen port (a
  // replacement can bind while we flush), answer every new submit
  // kUnavailable with message "draining" (health probes still served, with
  // the draining flag set), flush every in-flight response, then exit the
  // event loop and close every connection. Probes are answered only while
  // that flush is pending: a drain with nothing in flight finishes on the
  // loop's next wakeup. Non-blocking and idempotent; callers still invoke
  // stop() to join the loop thread and close the epoll/eventfd descriptors.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // Routes SIGTERM/SIGINT to begin_drain() through an async-signal-safe
  // handler (an atomic flag plus an eventfd write — no locks, no
  // allocation in the handler). Process-wide: the most recently installed
  // server owns the signals. Call after start().
  void install_signal_handlers();

  // Liveness surface for a warn-only serving::Watchdog probe: the epoch
  // advances once per event-loop iteration; the backlog is the number of
  // queued completions the loop has not drained yet. A frozen epoch with a
  // non-zero backlog is the stalled-loop signature.
  std::uint64_t loop_epoch() const {
    return loop_epoch_.load(std::memory_order_relaxed);
  }
  std::size_t loop_backlog() const {
    return completions_pending_.load(std::memory_order_relaxed);
  }

  // Actual bound port (resolves cfg.port == 0), valid after start().
  int port() const { return port_; }

  struct Stats {
    std::uint64_t accepted = 0;         // connections accepted
    std::uint64_t conn_rejected = 0;    // closed at the max_conns cap
    std::uint64_t frames = 0;           // request frames decoded
    std::uint64_t responses = 0;        // response frames queued to a conn
    std::uint64_t quota_rejected = 0;   // RESOURCE_EXHAUSTED before submit
    std::uint64_t protocol_errors = 0;  // malformed frames (conn closed)
    std::uint64_t write_faults = 0;     // net_write injected resets
    std::uint64_t health_frames = 0;    // health probes answered
    std::uint64_t drain_rejected = 0;   // submits refused while draining
    std::uint64_t dup_rejected = 0;     // replayed ids refused in flight
    std::uint64_t quota_evicted = 0;    // tenant buckets evicted at the cap
  };
  Stats stats() const;

 private:
  struct Conn;
  struct Completion;

  void loop_main();
  void handle_accept();
  void handle_readable(Conn& c);
  void handle_writable(Conn& c);
  // Decodes + submits every complete frame in c's read buffer. False = the
  // connection hit a protocol error and must close.
  bool process_frames(Conn& c);
  void queue_response(Conn& c, std::vector<std::uint8_t> bytes);
  void drain_completions();
  void close_conn(std::uint64_t id);
  void update_epoll(Conn& c);

  serving::ModelRegistry& registry_;
  serving::RequestScheduler& scheduler_;
  ServerConfig cfg_;
  TenantQuota quota_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completion queue -> event loop
  int port_ = 0;

  // Connections are owned by the loop thread; completion callbacks refer to
  // them only by id (fd reuse makes raw fds ambiguous), so a response for a
  // vanished connection is dropped, never dangles.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  std::atomic<std::size_t> completions_pending_{0};  // queued, not drained

  // In-flight replay dedup: (tenant, request_id) pairs the scheduler owns
  // right now. Inserted before submit, erased by on_done before the
  // completion is queued — a retry that arrives after the response was
  // queued is a fresh (idempotent) execution, never a duplicate in flight.
  std::mutex inflight_mu_;
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      inflight_ids_;

  std::atomic<std::uint64_t> in_flight_{0};  // submitted, on_done not yet run
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::thread loop_;

  std::atomic<std::uint64_t> loop_epoch_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> conn_rejected_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> write_faults_{0};
  std::atomic<std::uint64_t> health_frames_{0};
  std::atomic<std::uint64_t> drain_rejected_{0};
  std::atomic<std::uint64_t> dup_rejected_{0};
};

}  // namespace plt::net
