#pragma once
// The C&C request pipeline: zero-copy decode, interned session state, and
// O(pending) dead-drop bookkeeping — the hot path behind cnc::CncServer.
//
// RequestEngine is the part of the server a beacon actually exercises. It is
// deliberately simulation-free: handle() takes the current time as a value,
// touches only memory the engine owns, and never reaches for Simulation,
// TraceLog or the Database. That makes one engine per net::Site the sharding
// unit for a beacon storm — each shard's ShardedScheduler events drive that
// shard's engine under the PR 7 shard-safety contract (shard-disjoint state,
// no locks), and the per-shard results merge deterministically at the round
// barrier in shard index order (the same (origin shard, seq) discipline as
// the keyed event merge). CncServer wraps exactly one engine and layers the
// cold paths back on: trace logging, the purge task, and write-behind
// Database rows so forensic table dumps stay byte-identical to the seed.
//
// Determinism contract: every response the engine produces is folded into a
// per-engine FNV chain (fold_response), and state_checksum() digests the
// session/entry state in first-contact order. merge_storm() folds per-shard
// chains in shard index order, so a sharded storm whose per-shard request
// streams match a serial run's produces bit-identical merged checksums at
// any worker count — bench/cnc_throughput asserts this against pinned
// checksums, the sweep_tests storm suite against the single-queue run.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cnc/client_index.hpp"
#include "cnc/wire.hpp"
#include "net/message.hpp"
#include "sim/time.hpp"

namespace cyd::cnc {

/// FNV-1a folding behind the response chain, the state checksum and the
/// storm merge. The golden checksums pinned in bench/cnc_throughput hold
/// only while these steps stay exactly as they are.
inline constexpr std::uint64_t kChecksumBasis = 1469598103934665603ull;
inline std::uint64_t checksum_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}
std::uint64_t checksum_mix_bytes(std::uint64_t h, std::string_view bytes);

class RequestEngine {
 public:
  struct Counters {
    std::uint64_t get_news = 0;
    std::uint64_t uploads = 0;
    std::uint64_t upload_bytes = 0;
    std::uint64_t rejected = 0;     ///< 4xx responses
    std::uint64_t pending_ads = 0;  ///< queued, not yet delivered
  };

  /// Observability for the O(pending) guarantees: how many entries the last
  /// pickup/purge actually examined. A regression that reintroduces a full
  /// scan shows up here as cost proportional to history, not to new work.
  struct ScanStats {
    std::uint64_t last_pickup_scanned = 0;
    std::uint64_t last_purge_scanned = 0;
    std::uint64_t total_pickup_scanned = 0;
    std::uint64_t total_purge_scanned = 0;
  };

  /// What a handle() did, for the caller's trace layer. The views alias the
  /// request (client) and the stored entry (data_name); use them before the
  /// next engine call.
  struct Outcome {
    RequestVerb verb = RequestVerb::kInvalid;
    std::string_view client;
    std::size_t delivered = 0;       ///< GET_NEWS payloads in the response
    std::string_view data_name;      ///< ADD_ENTRY stored name
  };

  // --- protocol ---
  net::HttpResponse handle(const net::HttpRequest& request,
                           sim::TimePoint now, Outcome* outcome = nullptr);
  /// Batched entry point: one timestamp, one pass, responses in request
  /// order. Equivalent to calling handle() in a loop.
  std::vector<net::HttpResponse> handle_batch(
      std::span<const net::HttpRequest> requests, sim::TimePoint now);

  // --- dead-drop management (attack-center side) ---
  void push_ad(std::string_view client_id, Payload payload);
  void push_news(Payload payload);
  /// New (unretrieved) entries; marks them retrieved. O(new): everything
  /// before the retrieved watermark has already been picked up.
  std::vector<Entry> take_new_entries();
  /// Deletes retrieved entries with received_at <= cutoff. O(purged +
  /// remaining move): retrieved entries form a time-ordered prefix, so the
  /// purgeable set is a prefix and the scan never visits pending entries.
  std::size_t purge_retrieved(sim::TimePoint cutoff);

  // --- bounded access log ---
  const std::vector<std::string>& access_log() const { return access_log_; }
  /// Lines discarded so far by the cap (halving retention, newest survive).
  std::size_t access_log_dropped() const { return access_log_dropped_; }
  std::size_t access_log_cap() const { return access_log_cap_; }
  void set_access_log_cap(std::size_t cap) { access_log_cap_ = cap; }
  /// Empties the log and zeroes the drop counter (LogWiper: the wipe starts
  /// a fresh forensic window).
  void clear_access_log() {
    access_log_.clear();
    access_log_dropped_ = 0;
  }
  void set_logging(bool enabled) { logging_enabled_ = enabled; }
  bool logging_enabled() const { return logging_enabled_; }

  // --- inspection ---
  const Counters& counters() const { return counters_; }
  const ScanStats& scan_stats() const { return scan_stats_; }
  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t news_count() const { return news_.size(); }
  std::size_t retrieved_watermark() const { return retrieved_mark_; }
  ClientIndex& clients() { return index_; }
  const ClientIndex& clients() const { return index_; }
  /// Clients that have actually contacted the server (ad-only targets that
  /// never phoned home are excluded, as in the seed's database).
  std::size_t contacted_clients() const { return contact_order_.size(); }

  // --- determinism contract ---
  /// Ordered FNV chain over every response produced so far.
  std::uint64_t response_chain() const { return response_chain_; }
  /// Digest of session + entry state: counters, then client states in
  /// first-contact order, then entries in arrival order.
  std::uint64_t state_checksum() const;

  // --- write-behind (cold forensic store) ---
  /// Drains the states touched since the last call, in first-touch order,
  /// invoking fn(state, client_id). The owner materializes/updates Database
  /// rows from them; row creation order equals first-contact order, so table
  /// dumps match the seed's eager updates byte for byte.
  template <class Fn>
  void drain_touched(Fn&& fn) {
    for (const std::uint32_t index : touched_) {
      ClientState& s = index_.state(index);
      fn(s, index_.id_of(s));
      s.touched = false;
    }
    touched_.clear();
  }

 private:
  net::HttpResponse do_get_news(const DecodedRequest& d, sim::TimePoint now,
                                Outcome& outcome);
  net::HttpResponse do_add_entry(const DecodedRequest& d, sim::TimePoint now,
                                 Outcome& outcome);
  ClientState& contact(std::string_view client_id, std::string_view type,
                       sim::TimePoint now);
  void log_access(sim::TimePoint now, std::string_view verb,
                  std::string_view client, std::string_view key,
                  std::string_view value);

  ClientIndex index_;
  std::vector<std::uint32_t> touched_;        ///< write-behind queue
  std::vector<std::uint32_t> contact_order_;  ///< first-contact order

  std::vector<std::pair<std::uint64_t, Payload>> news_;
  std::uint64_t next_news_seq_ = 1;

  std::vector<Entry> entries_;
  std::size_t retrieved_mark_ = 0;  ///< entries_[0..mark) are retrieved
  std::uint64_t next_entry_id_ = 1;

  std::vector<std::string> access_log_;
  std::size_t access_log_cap_ = 65536;
  std::size_t access_log_dropped_ = 0;
  bool logging_enabled_ = true;

  Counters counters_;
  ScanStats scan_stats_;
  std::uint64_t response_chain_ = kChecksumBasis;
};

/// Deterministic shard merge for a beacon storm: counters summed and the
/// per-shard response/state chains folded in shard index order. Identical
/// for a serial shard-major run and a sharded run at any worker count.
struct StormMerge {
  RequestEngine::Counters totals;
  std::uint64_t clients = 0;  ///< contacted, across shards
  std::uint64_t entries = 0;  ///< still on disk, across shards
  std::uint64_t response_checksum = kChecksumBasis;
  std::uint64_t state_checksum = kChecksumBasis;
};
StormMerge merge_storm(std::span<const RequestEngine> shards);

}  // namespace cyd::cnc
