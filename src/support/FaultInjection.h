//===- support/FaultInjection.h - Seeded fault-point framework -*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded, site-registry fault-injection framework — the
/// shared substrate behind every injectable failure in the stack: disk
/// I/O (support/BinaryIO), snapshot persistence (PassCachePersist),
/// compile jobs (CompileService crash/hang simulation), the pass
/// pipeline (between-pass hangs), the socket transport (net::Server and
/// net::Connection), and the sharded sweep workers (tools/shard_sweep).
///
/// Model: code declares *named fault sites* by calling `fault::fire("x")`
/// (or decide/clampLen) at the point where a real failure could occur.
/// A configuration — parsed from a spec string, typically the
/// WEAVER_FAULTS environment variable or a --faults flag — attaches a
/// schedule to each site it names:
///
///   "seed=42;binio.fsync:after=1,count=1;service.job.hang:p=0.2,delay_ms=5000"
///
/// Spec grammar: `seed=S` plus `;`-separated site clauses
/// `name[:key=val[,key=val...]]`. A name may end in `*` to match a whole
/// family by prefix. Keys:
///
///   p=F         fire with probability F per eligible call (seeded draw)
///   after=N     the first N calls at the site never fire
///   count=N     fire at most N times, then the site goes quiet (0 = no cap)
///   every=K     fire on every K-th eligible call (deterministic)
///   delay_ms=F  injected sleep (or hang cap, site-specific) when firing
///
/// A clause with neither `p` nor `every` fires on every eligible call —
/// `site:after=2,count=1` means "exactly the 3rd call fails", the
/// deterministic schedule chaos tests are built from.
///
/// Determinism: every site draws from its own Xoshiro256 stream seeded
/// from (config seed, FNV-1a of the site name), so one site's schedule
/// never depends on how often *other* sites were consulted. Within a
/// site, decisions depend only on the call ordinal — deterministic
/// whenever the site is reached in a deterministic order (true for all
/// single-threaded fault surfaces, and for the service with one worker).
///
/// Zero-cost when disabled: `fire`/`decide`/`clampLen` on the global
/// engine are an inline relaxed atomic load and a branch; nothing else
/// runs until a configuration is installed. Production builds with no
/// WEAVER_FAULTS pay one predictable branch per site.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SUPPORT_FAULTINJECTION_H
#define WEAVER_SUPPORT_FAULTINJECTION_H

#include "support/Rng.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace weaver {

class CancelToken;

namespace fault {

/// Schedule attached to every site matching Pattern. See file comment
/// for the spec grammar these fields mirror.
struct SiteSpec {
  std::string Pattern;      ///< exact site name, or a prefix ending in '*'
  double Probability = -1;  ///< p= ; negative means "not probabilistic"
  uint64_t After = 0;       ///< skip the first N calls at the site
  uint64_t Count = 0;       ///< fire at most N times (0 = unlimited)
  uint64_t Every = 0;       ///< fire on every K-th eligible call
  double DelayMs = 0;       ///< injected sleep / hang cap when firing
};

/// A full fault configuration: one seed plus the site schedules.
struct Config {
  uint64_t Seed = 0;
  std::vector<SiteSpec> Sites;
  bool enabled() const { return !Sites.empty(); }
};

/// Parses the spec grammar in the file comment. Unknown keys, malformed
/// numbers, probabilities outside [0, 1], and negative delays are errors
/// — the injector exists to harden failure paths; it must not itself
/// accept garbage. An empty/whitespace spec is a valid disabled config.
Expected<Config> parseConfig(std::string_view Spec);

/// Outcome of consulting one site: whether to inject, and the schedule's
/// delay parameter (0 when none was configured).
struct Decision {
  bool Fire = false;
  double DelayMs = 0;
};

/// Per-site observation counters (returned sorted by site name, so
/// reports are deterministic).
struct SiteCount {
  std::string Site;
  uint64_t Calls = 0;
  uint64_t Fired = 0;
};

/// A seeded fault engine. The process-global instance (below) serves the
/// WEAVER_FAULTS and --faults surface; tests that need an independently
/// seeded stream own a private Engine.
class Engine {
public:
  Engine() = default;
  explicit Engine(Config C) { configure(std::move(C)); }

  /// Installs \p C, discarding all prior site state and counters.
  void configure(Config C);
  /// Back to the disabled state (equivalent to configure({})).
  void reset() { configure(Config()); }

  bool enabled() const { return On.load(std::memory_order_relaxed); }

  /// Consults \p Site's schedule without sleeping. Call sites that honour
  /// DelayMs themselves (hang loops) use this.
  Decision decide(std::string_view Site);

  /// decide() plus an unconditional sleep of the schedule's DelayMs when
  /// firing. The common "should this operation fail now?" entry point.
  bool fire(std::string_view Site);

  /// Length-clamping helper for short reads/writes: when \p Site fires,
  /// returns a seeded value in [\p Lo, \p Len); otherwise \p Len
  /// unchanged. Requires Lo < Len to fire (degenerate lengths pass
  /// through untouched, so progress guarantees hold).
  size_t clampLen(std::string_view Site, size_t Len, size_t Lo = 0);

  /// Counters for every site consulted since configure(), name-sorted.
  std::vector<SiteCount> counters() const;
  /// Total injections across all sites.
  uint64_t totalFired() const;

private:
  struct SiteState {
    const SiteSpec *Spec = nullptr; ///< into Cfg.Sites; null = unmatched
    Xoshiro256 Rng{0};
    uint64_t Calls = 0;
    uint64_t Fired = 0;
  };

  /// Returns the state for \p Site, creating (and spec-matching) it on
  /// first consultation. Caller holds M.
  SiteState &stateFor(std::string_view Site);
  Decision decideLocked(SiteState &S);

  mutable std::mutex M;
  Config Cfg;
  std::atomic<bool> On{false};
  /// Ordered map so counters() reports deterministically; transparent
  /// comparator so lookups take string_view without allocating.
  std::map<std::string, SiteState, std::less<>> States;
};

namespace detail {
/// Fast-path flag for the global engine; flipped only by configureGlobal
/// and resetGlobal.
extern std::atomic<bool> GlobalOn;
bool fireGlobal(std::string_view Site);
Decision decideGlobal(std::string_view Site);
size_t clampLenGlobal(std::string_view Site, size_t Len, size_t Lo);
} // namespace detail

/// The process-global engine. First access installs the WEAVER_FAULTS
/// environment spec if present (a malformed env spec is reported to
/// stderr once and ignored — use initGlobalFromEnv() in tools that want
/// a hard failure).
Engine &globalEngine();

/// True once a global fault configuration is installed. Inline single
/// relaxed load: the whole framework costs this branch when idle.
inline bool enabled() {
  return detail::GlobalOn.load(std::memory_order_relaxed);
}

/// Global-engine convenience wrappers; no-ops (false / Len) when the
/// global engine is unconfigured.
inline bool fire(std::string_view Site) {
  return enabled() && detail::fireGlobal(Site);
}
inline Decision decide(std::string_view Site) {
  return enabled() ? detail::decideGlobal(Site) : Decision{};
}
inline size_t clampLen(std::string_view Site, size_t Len, size_t Lo = 0) {
  return enabled() ? detail::clampLenGlobal(Site, Len, Lo) : Len;
}

/// Parses \p Spec and installs it on the global engine. An empty spec
/// disables injection (same as resetGlobal).
Status configureGlobal(std::string_view Spec);
/// Installs an already-parsed config on the global engine.
void configureGlobal(Config C);
/// Disables the global engine and clears its state. Tests that configure
/// faults must reset in teardown — the engine is process-global.
void resetGlobal();

/// Parses WEAVER_FAULTS (if set) into the global engine, returning the
/// parse error instead of swallowing it. Tools call this from main().
Status initGlobalFromEnv();

/// Simulated hang: sleeps in small slices until \p CapMs elapses or
/// \p Token (may be null) is cancelled — so a watchdog that cancels the
/// token converts the hang into a prompt cooperative abort. A CapMs <= 0
/// hangs for the default cap (60 s), never forever: an unattended hang
/// must eventually release its thread even with no watchdog armed.
void hangUntilCancelled(double CapMs, const CancelToken *Token);

} // namespace fault
} // namespace weaver

#endif // WEAVER_SUPPORT_FAULTINJECTION_H
