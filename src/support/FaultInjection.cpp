//===- support/FaultInjection.cpp - Seeded fault-point framework ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/BinaryIO.h"
#include "support/CancelToken.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace weaver {
namespace fault {

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

namespace {

/// True when \p Site matches \p Pattern (exact, or prefix when the
/// pattern ends in '*').
bool matches(std::string_view Pattern, std::string_view Site) {
  if (!Pattern.empty() && Pattern.back() == '*')
    return startsWith(Site, Pattern.substr(0, Pattern.size() - 1));
  return Pattern == Site;
}

/// Valid site/pattern names: dotted lower-case identifiers, optional
/// trailing '*'. Rejecting everything else catches typos in specs that
/// would otherwise silently match nothing.
bool validPattern(std::string_view P) {
  if (P.empty())
    return false;
  bool Wildcard = P.back() == '*';
  if (Wildcard)
    P.remove_suffix(1);
  // A family wildcard naturally ends at a dot ("binio.*"); a plain site
  // name must not.
  if (P.empty() || P.front() == '.' || (!Wildcard && P.back() == '.'))
    return false;
  for (char C : P)
    if (!(C >= 'a' && C <= 'z') && !(C >= '0' && C <= '9') && C != '.' &&
        C != '_' && C != '-')
      return false;
  return true;
}

Status parseSiteClause(std::string_view Clause, SiteSpec &Out) {
  size_t Colon = Clause.find(':');
  std::string_view Name = trim(Clause.substr(0, Colon));
  if (!validPattern(Name))
    return Status::error("fault spec: bad site name '" + std::string(Name) +
                         "'");
  Out.Pattern = std::string(Name);
  if (Colon == std::string_view::npos)
    return Status::success();
  for (std::string_view KV : split(Clause.substr(Colon + 1), ',')) {
    size_t Eq = KV.find('=');
    if (Eq == std::string_view::npos)
      return Status::error("fault spec: expected key=value in '" +
                           std::string(KV) + "'");
    std::string_view Key = trim(KV.substr(0, Eq));
    std::string_view Val = trim(KV.substr(Eq + 1));
    if (Key == "p") {
      Expected<double> P = parseDouble(Val, 0.0, 1.0);
      if (!P)
        return Status::error("fault spec: p: " + P.message());
      Out.Probability = *P;
    } else if (Key == "after") {
      Expected<long long> N = parseInt(Val, 0, 1LL << 40);
      if (!N)
        return Status::error("fault spec: after: " + N.message());
      Out.After = static_cast<uint64_t>(*N);
    } else if (Key == "count") {
      Expected<long long> N = parseInt(Val, 0, 1LL << 40);
      if (!N)
        return Status::error("fault spec: count: " + N.message());
      Out.Count = static_cast<uint64_t>(*N);
    } else if (Key == "every") {
      Expected<long long> N = parseInt(Val, 1, 1LL << 40);
      if (!N)
        return Status::error("fault spec: every: " + N.message());
      Out.Every = static_cast<uint64_t>(*N);
    } else if (Key == "delay_ms") {
      Expected<double> D = parseDouble(Val, 0.0, 600000.0);
      if (!D)
        return Status::error("fault spec: delay_ms: " + D.message());
      Out.DelayMs = *D;
    } else {
      return Status::error("fault spec: unknown key '" + std::string(Key) +
                           "'");
    }
  }
  if (Out.Probability >= 0 && Out.Every > 0)
    return Status::error("fault spec: '" + Out.Pattern +
                         "' sets both p= and every=");
  return Status::success();
}

} // namespace

Expected<Config> parseConfig(std::string_view Spec) {
  Config C;
  for (std::string_view Clause : split(Spec, ';')) {
    Clause = trim(Clause);
    if (Clause.empty())
      continue;
    if (startsWith(Clause, "seed=")) {
      Expected<long long> S = parseInt(Clause.substr(5), 0, (1LL << 62));
      if (!S)
        return Expected<Config>::error("fault spec: seed: " + S.message());
      C.Seed = static_cast<uint64_t>(*S);
      continue;
    }
    SiteSpec Site;
    if (Status E = parseSiteClause(Clause, Site))
      return Expected<Config>(E);
    C.Sites.push_back(std::move(Site));
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

void Engine::configure(Config C) {
  std::lock_guard<std::mutex> Lock(M);
  Cfg = std::move(C);
  States.clear();
  On.store(Cfg.enabled(), std::memory_order_relaxed);
}

Engine::SiteState &Engine::stateFor(std::string_view Site) {
  auto It = States.find(Site);
  if (It != States.end())
    return It->second;
  SiteState S;
  // First-match-wins lets a later wildcard act as a family default
  // without overriding an earlier exact schedule.
  for (const SiteSpec &Spec : Cfg.Sites)
    if (matches(Spec.Pattern, Site)) {
      S.Spec = &Spec;
      break;
    }
  // FNV-1a over the site name, from the standard offset basis, is
  // mixed with the config seed so every site gets an independent,
  // name-stable RNG stream.
  S.Rng = Xoshiro256(
      SplitMix64(Cfg.Seed ^ fnv1a64(Site.data(), Site.size(),
                                    0xcbf29ce484222325ULL))
          .next());
  return States.emplace(std::string(Site), std::move(S)).first->second;
}

Decision Engine::decideLocked(SiteState &S) {
  if (!S.Spec)
    return Decision{};
  const SiteSpec &Spec = *S.Spec;
  uint64_t Ordinal = ++S.Calls;
  // The probabilistic draw happens on every eligible call, fired or
  // suppressed, so the site's schedule is a pure function of its own
  // call ordinal — count caps must not shift later draws.
  if (Ordinal <= Spec.After)
    return Decision{};
  bool Fire;
  if (Spec.Probability >= 0)
    Fire = S.Rng.nextDouble() < Spec.Probability;
  else if (Spec.Every > 0)
    Fire = (Ordinal - Spec.After) % Spec.Every == 0;
  else
    Fire = true;
  if (Fire && Spec.Count > 0 && S.Fired >= Spec.Count)
    Fire = false;
  if (!Fire)
    return Decision{};
  ++S.Fired;
  return Decision{true, Spec.DelayMs};
}

Decision Engine::decide(std::string_view Site) {
  if (!enabled())
    return Decision{};
  std::lock_guard<std::mutex> Lock(M);
  return decideLocked(stateFor(Site));
}

bool Engine::fire(std::string_view Site) {
  Decision D = decide(Site);
  if (D.Fire && D.DelayMs > 0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(D.DelayMs));
  return D.Fire;
}

size_t Engine::clampLen(std::string_view Site, size_t Len, size_t Lo) {
  if (!enabled() || Lo >= Len)
    return Len;
  std::lock_guard<std::mutex> Lock(M);
  SiteState &S = stateFor(Site);
  if (!decideLocked(S).Fire)
    return Len;
  return Lo + static_cast<size_t>(S.Rng.nextBelow(Len - Lo));
}

std::vector<SiteCount> Engine::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<SiteCount> Out;
  Out.reserve(States.size());
  for (const auto &[Name, S] : States)
    Out.push_back(SiteCount{Name, S.Calls, S.Fired});
  return Out;
}

uint64_t Engine::totalFired() const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Total = 0;
  for (const auto &[Name, S] : States)
    Total += S.Fired;
  return Total;
}

//===----------------------------------------------------------------------===//
// Global engine
//===----------------------------------------------------------------------===//

namespace detail {
std::atomic<bool> GlobalOn{false};

bool fireGlobal(std::string_view Site) { return globalEngine().fire(Site); }
Decision decideGlobal(std::string_view Site) {
  return globalEngine().decide(Site);
}
size_t clampLenGlobal(std::string_view Site, size_t Len, size_t Lo) {
  return globalEngine().clampLen(Site, Len, Lo);
}
} // namespace detail

namespace {
std::once_flag EnvInitFlag;

/// The engine object itself, with no env-init hook attached — internal
/// helpers that may run *inside* the EnvInitFlag execution must use this
/// (re-entering std::call_once on the active flag would deadlock).
Engine &rawGlobalEngine() {
  static Engine *E = new Engine(); // leaked: usable during static teardown
  return *E;
}

void installGlobal(Config C) {
  bool Enabled = C.enabled();
  rawGlobalEngine().configure(std::move(C));
  detail::GlobalOn.store(Enabled, std::memory_order_relaxed);
}

void initFromEnvBestEffort() {
  const char *Spec = std::getenv("WEAVER_FAULTS");
  if (!Spec || !*Spec)
    return;
  Expected<Config> C = parseConfig(Spec);
  if (!C) {
    std::fprintf(stderr, "warning: ignoring WEAVER_FAULTS: %s\n",
                 C.message().c_str());
    return;
  }
  installGlobal(C.take());
}

/// Eagerly resolves WEAVER_FAULTS at program startup. Lazy-only init
/// would never run: the inline fast path reads GlobalOn and
/// short-circuits before ever touching globalEngine(), so with the flag
/// still false no call site would trigger the env parse.
struct EnvInitAtStartup {
  EnvInitAtStartup() { std::call_once(EnvInitFlag, initFromEnvBestEffort); }
} RunEnvInitAtStartup;
} // namespace

Engine &globalEngine() {
  std::call_once(EnvInitFlag, initFromEnvBestEffort);
  return rawGlobalEngine();
}

void configureGlobal(Config C) {
  // Resolve the env var first so a later first call to globalEngine()
  // cannot clobber an explicitly installed config.
  std::call_once(EnvInitFlag, [] {});
  installGlobal(std::move(C));
}

Status configureGlobal(std::string_view Spec) {
  Expected<Config> C = parseConfig(Spec);
  if (!C)
    return C.status();
  configureGlobal(C.take());
  return Status::success();
}

void resetGlobal() { configureGlobal(Config()); }

Status initGlobalFromEnv() {
  const char *Spec = std::getenv("WEAVER_FAULTS");
  // Claim the lazy-init slot either way, so globalEngine() won't re-read
  // the env after an explicit init.
  std::call_once(EnvInitFlag, [] {});
  if (!Spec || !*Spec)
    return Status::success();
  Expected<Config> C = parseConfig(Spec);
  if (!C)
    return Status::error("WEAVER_FAULTS: " + C.message());
  configureGlobal(C.take());
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Simulated hang
//===----------------------------------------------------------------------===//

void hangUntilCancelled(double CapMs, const CancelToken *Token) {
  if (CapMs <= 0)
    CapMs = 60000;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(CapMs));
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Token && Token->isCancelled())
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

} // namespace fault
} // namespace weaver
