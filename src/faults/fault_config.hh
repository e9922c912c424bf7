/**
 * @file
 * Configuration of the NVM media fault model and the MC-side
 * resilience layer (ECC strength, bounded read retry).
 *
 * This header is dependency-free (cstdint/string only) so that
 * SystemConfig can embed a FaultConfig without dragging the faults
 * library into the base sim library; the model itself, the spec
 * parser, and the canonical printer live in proteus_faults.
 */

#ifndef PROTEUS_FAULTS_FAULT_CONFIG_HH
#define PROTEUS_FAULTS_FAULT_CONFIG_HH

#include <cstdint>
#include <string>

namespace proteus {
namespace faults {

/**
 * Media fault rates and MC resilience knobs. All draws inside the
 * model are pure functions of (seed, line, per-line access ordinal),
 * never of simulated time, so fault outcomes are bit-identical across
 * --jobs levels and with cycle skipping on or off.
 *
 * Spec grammar (--faults): comma-separated key=value pairs —
 *   torn=RATE       per-write probability of a torn 64B line write
 *   readflip=RATE   per-read probability of transient bit flips
 *   bits=N          max flipped bits per transient read fault (>=1)
 *   endurance=N     per-line write budget; writes beyond it hit
 *                   stuck-at cells (0 = unlimited endurance)
 *   stuck=N         stuck-at bits per worn-line write
 *   detect=N        ECC detection strength in bits (faults flipping
 *                   more bits than this are *silent*)
 *   correct=N       ECC correction strength in bits (<= detect)
 *   retries=N       bounded read-retry attempts before the line is
 *                   declared unrecoverable
 *   backoff=N       base retry backoff in cycles (doubles per attempt)
 *   seed=N          fault-stream seed (also --fault-seed)
 * Example: --faults torn=1e-3,readflip=1e-4,detect=8,correct=1
 */
struct FaultConfig
{
    double tornWriteRate = 0.0;     ///< torn 64B line write probability
    double readFlipRate = 0.0;      ///< transient read fault probability
    unsigned readFlipBitsMax = 2;   ///< max bits flipped per read fault
    std::uint64_t enduranceWrites = 0;  ///< per-line budget; 0 = infinite
    unsigned stuckBits = 2;         ///< stuck-at bits on worn writes
    unsigned eccDetectBits = 8;     ///< ECC detection strength (bits)
    unsigned eccCorrectBits = 1;    ///< ECC correction strength (bits)
    unsigned readRetryLimit = 4;    ///< bounded retry attempts per read
    unsigned retryBackoffBase = 16; ///< cycles; doubles per attempt
    std::uint64_t seed = 1;         ///< fault-stream seed

    /** @return true if any fault mechanism can fire. */
    bool
    enabled() const
    {
        return tornWriteRate > 0.0 || readFlipRate > 0.0 ||
               enduranceWrites > 0;
    }

    bool operator==(const FaultConfig &) const = default;
};

/** Parse a --faults spec on top of @p base; throws FatalError on bad
 *  keys/values (defined in the faults library). */
FaultConfig parseFaultSpec(const std::string &spec,
                           const FaultConfig &base = FaultConfig{});

/** Canonical spec string round-tripping through parseFaultSpec. */
std::string canonicalFaultSpec(const FaultConfig &cfg);

/**
 * Counter snapshot of one run's fault activity; plain data so RunResult
 * and tx-stats rows can carry it without linking the faults library.
 */
struct FaultStatsSummary
{
    bool enabled = false;
    std::uint64_t tornWrites = 0;       ///< torn line writes injected
    std::uint64_t wornWrites = 0;       ///< writes past the endurance budget
    std::uint64_t readFaults = 0;       ///< faulted read attempts (all kinds)
    std::uint64_t eccCorrected = 0;     ///< faults corrected in-line by ECC
    std::uint64_t eccDetected = 0;      ///< detected-but-uncorrectable events
    std::uint64_t silentFaults = 0;     ///< faults beyond ECC detection
    std::uint64_t readRetries = 0;      ///< retry reads issued by the MC
    std::uint64_t retryBackoffCycles = 0;   ///< cycles spent backing off
    std::uint64_t retriesExhausted = 0; ///< reads degraded after max retries
    std::uint64_t poisonedLines = 0;    ///< lines poisoned at snapshot time
};

} // namespace faults
} // namespace proteus

#endif // PROTEUS_FAULTS_FAULT_CONFIG_HH
