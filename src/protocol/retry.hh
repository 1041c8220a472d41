/**
 * @file
 * Bounded retry with capped exponential backoff.
 *
 * The protocol retries transient conditions — a forward nacked by a
 * stale owner, a request bounced back by the home, an engine held by
 * an injected stall. The paper's model retries immediately and
 * without bound, which is faithful to the hardware but livelocks
 * under adversarial fault injection. RetryTracker centralizes the
 * alternative policy: each retry of a key waits base * 2^(n-1) ticks
 * (capped), and after maxRetries the caller escalates with a clean
 * diagnostic instead of spinning forever.
 *
 * The default-constructed policy (base 0, unbounded) reproduces the
 * paper's immediate-retry behavior exactly, so timing results are
 * unchanged unless a policy is explicitly configured.
 */

#ifndef CCNUMA_PROTOCOL_RETRY_HH
#define CCNUMA_PROTOCOL_RETRY_HH

#include <cstdint>

#include "sim/recycling_map.hh"
#include "sim/types.hh"

namespace ccnuma
{

/** Retry/backoff policy knobs (defaults = the paper's behavior). */
struct RetryPolicyParams
{
    /** First-retry backoff (ticks); 0 retries immediately. */
    Tick backoffBase = 0;
    /** Ceiling on the exponential backoff (ticks); 0 = no cap. */
    Tick backoffMax = 0;
    /** Retries of one key before escalation; 0 = unbounded. */
    unsigned maxRetries = 0;

    /** True when the policy escalates instead of retrying forever. */
    bool bounded() const { return maxRetries != 0; }
};

/**
 * Per-key retry bookkeeping for one component. Keys are whatever
 * the caller retries on (the coherence controllers use line
 * addresses). clear() must be called when the operation finally
 * succeeds so an occasionally-nacked hot line never accumulates
 * toward escalation.
 */
class RetryTracker
{
  public:
    explicit RetryTracker(const RetryPolicyParams &p) : p_(p) {}

    struct Attempt
    {
        /** Ticks to wait before re-attempting. */
        Tick delay = 0;
        /** Retry budget exhausted: escalate, do not retry. */
        bool exhausted = false;
        /** Consecutive retries of this key, including this one. */
        unsigned count = 0;
    };

    /** Record a retry of @p key and compute its backoff. */
    Attempt next(std::uint64_t key);

    /** The operation succeeded: forget the key's retry history. */
    void clear(std::uint64_t key) { counts_.erase(key); }

    /** Fail-stop crash: all in-flight operations died with it. */
    void clearAll() { counts_.clear(); }

    const RetryPolicyParams &params() const { return p_; }

  private:
    RetryPolicyParams p_;
    /** Erased entries keep their nodes, so a nack never allocates. */
    RecyclingMap<std::uint64_t, unsigned> counts_;
};

/**
 * Capped exponential backoff: base * 2^level, saturated at @p max
 * (when nonzero) and guarded against shift overflow.
 */
Tick backoffDelay(Tick base, Tick max, unsigned level);

} // namespace ccnuma

#endif // CCNUMA_PROTOCOL_RETRY_HH
