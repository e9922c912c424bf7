#include "gen_workload.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"
#include "workloads/registry.hh"

namespace proteus {
namespace wlgen {

namespace {

/** Full murmur3 fmix64. */
std::uint64_t
mix(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ull;
    key ^= key >> 33;
    return key;
}

constexpr std::uint64_t groupSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t homeSalt = 0xc2b2ae3d27d4eb4full;

} // namespace

GenWorkload::GenWorkload(PersistentHeap &heap, LogScheme scheme,
                         const WorkloadParams &params,
                         const GenSpec &spec)
    : Workload(heap, scheme, params), _spec(spec)
{
    _spec.validate();
    _dist = makeKeyGenerator(_spec);

    // Size each table for ~50% max load even if every key of its
    // share of the key space were inserted.
    const std::uint64_t keys_per_table =
        _spec.keySpace / _spec.tables + 1;
    _groups = std::max<std::uint64_t>(
        1, (keys_per_table * 2 + slotsPerGroup - 1) / slotsPerGroup);
    _stripes = std::min<std::uint64_t>(_groups, 4096);
    _slotBytes = slotHeaderBytes + _spec.valueBytes;
    _valueWords = _spec.valueBytes / 8;
    _initCounter.assign(params.threads, 0);
}

std::uint64_t
GenWorkload::popKeys() const
{
    return _spec.keySpace * _spec.populatePct / 100;
}

std::uint64_t
GenWorkload::initOps() const
{
    const std::uint64_t keys = popKeys();
    if (keys == 0)
        return 0;
    const std::uint64_t per_thread =
        (keys + _params.threads - 1) / _params.threads;
    return std::max<std::uint64_t>(1, per_thread / _params.initScale);
}

std::uint64_t
GenWorkload::simOps() const
{
    return std::max<std::uint64_t>(1, _spec.baseOps / _params.scale);
}

std::uint64_t
GenWorkload::valueWord(std::uint64_t key, std::uint64_t gen, unsigned w)
{
    std::uint64_t x = key + groupSalt * (gen + 1) +
                      0xbf58476d1ce4e5b9ull * (w + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

unsigned
GenWorkload::tableOf(std::uint64_t key) const
{
    return static_cast<unsigned>(mix(key) % _spec.tables);
}

std::uint64_t
GenWorkload::groupOf(std::uint64_t key) const
{
    return mix(key ^ groupSalt) % _groups;
}

unsigned
GenWorkload::homeOf(std::uint64_t key) const
{
    return static_cast<unsigned>(mix(key ^ homeSalt) % slotsPerGroup);
}

Addr
GenWorkload::groupBase(unsigned table, std::uint64_t group) const
{
    return _tables[table] +
           group * (slotsPerGroup * std::uint64_t(_slotBytes));
}

Addr
GenWorkload::lockFor(std::uint64_t key) const
{
    const unsigned t = tableOf(key);
    return _locks[t][groupOf(key) % _stripes];
}

void
GenWorkload::allocateStructures()
{
    const std::uint64_t table_bytes =
        _groups * slotsPerGroup * std::uint64_t(_slotBytes);
    for (unsigned t = 0; t < _spec.tables; ++t) {
        const Addr base = _heap->alloc(table_bytes, blockSize);
        // Only the state words need defined initial contents: probe
        // and serialize read key/gen/value exclusively behind an
        // occupied state.
        for (std::uint64_t s = 0; s < _groups * slotsPerGroup; ++s)
            _heap->write<std::uint64_t>(base + s * _slotBytes + 8,
                                       stEmpty);
        _tables.push_back(base);

        std::vector<Addr> locks;
        for (std::uint64_t l = 0; l < _stripes; ++l)
            locks.push_back(_heap->allocVolatile(blockSize, blockSize));
        _locks.push_back(std::move(locks));
    }
}

void
GenWorkload::declareGroup(unsigned thread, std::uint64_t key)
{
    // Software undo logging (PMEM schemes) must declare everything a
    // transaction may overwrite before its first store — TraceBuilder
    // enforces the Figure 2 step order. Which slots a mutation touches
    // depends on probing, which depends on earlier keys' effects, so
    // declare the key's whole bucket group: coarse but always sound,
    // exactly like a conservative software undo log. declareLogged
    // deduplicates granules, so overlapping keys cost nothing extra.
    builder(thread).declareLogged(
        groupBase(tableOf(key), groupOf(key)),
        slotsPerGroup * _slotBytes);
}

GenWorkload::Probe
GenWorkload::probe(unsigned thread, std::uint64_t key)
{
    TraceBuilder &tb = builder(thread);
    const Addr base = groupBase(tableOf(key), groupOf(key));
    const unsigned home = homeOf(key);

    Probe out;
    for (unsigned i = 0; i < slotsPerGroup; ++i) {
        const Addr s =
            base + ((home + i) % slotsPerGroup) * _slotBytes;
        const Value st = tb.load(s + 8, 8);
        tb.branch(site(0), st.v == stEmpty, st);
        if (st.v == stEmpty) {
            if (out.freeSlot == 0)
                out.freeSlot = s;
            break;
        }
        tb.branch(site(1), st.v == stTombstone, st);
        if (st.v == stTombstone) {
            if (out.freeSlot == 0)
                out.freeSlot = s;
            continue;
        }
        const Value k = tb.load(s + 0, 8, st);
        tb.branch(site(2), k.v == key, k);
        if (k.v == key) {
            out.slot = s;
            out.dep = k;
            break;
        }
    }
    return out;
}

void
GenWorkload::opRead(unsigned thread, std::uint64_t key)
{
    TraceBuilder &tb = builder(thread);
    const Probe p = probe(thread, key);
    tb.branch(site(3), p.slot != 0, p.dep);
    if (p.slot == 0)
        return;
    const Value g = tb.load(p.slot + 16, 8, p.dep);
    for (unsigned w = 0; w < _valueWords; ++w)
        tb.load(p.slot + slotHeaderBytes + w * 8ull, 8, g);
}

void
GenWorkload::opUpdate(unsigned thread, std::uint64_t key, bool rmw)
{
    TraceBuilder &tb = builder(thread);
    const Probe p = probe(thread, key);
    tb.branch(site(4), p.slot != 0, p.dep);
    if (p.slot == 0)
        return;
    const Value g = tb.load(p.slot + 16, 8, p.dep);
    if (rmw) {
        for (unsigned w = 0; w < _valueWords; ++w)
            tb.load(p.slot + slotHeaderBytes + w * 8ull, 8, g);
    }
    const std::uint64_t new_gen = g.v + 1;
    tb.store(p.slot + 16, 8, new_gen, g);
    for (unsigned w = 0; w < _valueWords; ++w)
        tb.store(p.slot + slotHeaderBytes + w * 8ull, 8,
                 valueWord(key, new_gen, w), g);
}

void
GenWorkload::opInsert(unsigned thread, std::uint64_t key)
{
    TraceBuilder &tb = builder(thread);
    const Probe p = probe(thread, key);
    tb.branch(site(5), p.slot != 0, p.dep);
    if (p.slot != 0) {
        // Upsert: bump the generation, rewrite the value.
        const Value g = tb.load(p.slot + 16, 8, p.dep);
        const std::uint64_t new_gen = g.v + 1;
        tb.store(p.slot + 16, 8, new_gen, g);
        for (unsigned w = 0; w < _valueWords; ++w)
            tb.store(p.slot + slotHeaderBytes + w * 8ull, 8,
                     valueWord(key, new_gen, w), g);
        return;
    }
    if (p.freeSlot == 0)
        return;     // group full: deterministic no-op
    padAlloc(thread);
    tb.store(p.freeSlot + 0, 8, key);
    tb.store(p.freeSlot + 16, 8, 1);    // generation
    tb.store(p.freeSlot + 24, 8, 0);    // header pad
    for (unsigned w = 0; w < _valueWords; ++w)
        tb.store(p.freeSlot + slotHeaderBytes + w * 8ull, 8,
                 valueWord(key, 1, w));
    tb.store(p.freeSlot + 8, 8, stOccupied);
}

void
GenWorkload::opDelete(unsigned thread, std::uint64_t key)
{
    TraceBuilder &tb = builder(thread);
    const Probe p = probe(thread, key);
    tb.branch(site(6), p.slot != 0, p.dep);
    if (p.slot == 0)
        return;
    padFree(thread);
    tb.store(p.slot + 8, 8, stTombstone, p.dep);
}

void
GenWorkload::dispatch(unsigned thread, Op op, std::uint64_t key)
{
    switch (op) {
      case Op::Read:   opRead(thread, key); break;
      case Op::Update: opUpdate(thread, key, false); break;
      case Op::Insert: opInsert(thread, key); break;
      case Op::Delete: opDelete(thread, key); break;
      case Op::Rmw:    opUpdate(thread, key, true); break;
    }
}

void
GenWorkload::doInitOp(unsigned thread)
{
    // Deterministic round-robin population of keys [0, popKeys):
    // rank == key, so the distribution's hottest keys are resident.
    const std::uint64_t round = _initCounter[thread]++;
    const std::uint64_t key =
        round * _params.threads + thread;
    if (key >= popKeys())
        return;

    TraceBuilder &tb = builder(thread);
    const Addr lock = lockFor(key);
    acquire(thread, lock);
    tb.beginTx();
    padPrologue(thread);
    declareGroup(thread, key);
    padHash(thread);
    opInsert(thread, key);
    tb.endTx();
    release(thread, lock);
}

void
GenWorkload::doOp(unsigned thread)
{
    Random &r = rng(thread);

    // Draw the whole transaction (keys and op kinds) before touching
    // the trace, so the lock set is known up front.
    const auto nkeys = static_cast<unsigned>(
        r.nextRange(_spec.keysMin, _spec.keysMax));
    struct KeyOp
    {
        std::uint64_t key;
        Op op;
    };
    std::vector<KeyOp> ops;
    ops.reserve(nkeys);
    for (unsigned i = 0; i < nkeys; ++i) {
        const std::uint64_t key = _dist->nextRank(r);
        const std::uint64_t pct = r.nextBelow(100);
        Op op = Op::Rmw;
        if (pct < _spec.readPct)
            op = Op::Read;
        else if (pct < _spec.readPct + _spec.updatePct)
            op = Op::Update;
        else if (pct <
                 _spec.readPct + _spec.updatePct + _spec.insertPct)
            op = Op::Insert;
        else if (pct < _spec.readPct + _spec.updatePct +
                           _spec.insertPct + _spec.deletePct)
            op = Op::Delete;
        ops.push_back({key, op});
    }

    // Sorted, deduplicated group locks: sorted acquisition plus the
    // round-robin ticket order keeps multi-lock transactions
    // deadlock-free.
    std::vector<Addr> locks;
    locks.reserve(ops.size());
    for (const KeyOp &ko : ops)
        locks.push_back(lockFor(ko.key));
    std::sort(locks.begin(), locks.end());
    locks.erase(std::unique(locks.begin(), locks.end()), locks.end());

    TraceBuilder &tb = builder(thread);
    for (Addr l : locks)
        acquire(thread, l);
    tb.beginTx();
    padPrologue(thread);
    for (const KeyOp &ko : ops) {
        if (ko.op != Op::Read)
            declareGroup(thread, ko.key);
    }
    for (const KeyOp &ko : ops) {
        padHash(thread);
        dispatch(thread, ko.op, ko.key);
    }
    tb.endTx();
    for (auto it = locks.rbegin(); it != locks.rend(); ++it)
        release(thread, *it);
}

std::string
GenWorkload::serialize(const MemoryImage &image) const
{
    std::ostringstream os;
    for (unsigned t = 0; t < _spec.tables; ++t) {
        for (std::uint64_t g = 0; g < _groups; ++g) {
            for (unsigned s = 0; s < slotsPerGroup; ++s) {
                const Addr slot =
                    groupBase(t, g) + s * std::uint64_t(_slotBytes);
                if (image.read64(slot + 8) != stOccupied)
                    continue;
                const std::uint64_t key = image.read64(slot);
                const std::uint64_t gen = image.read64(slot + 16);
                std::uint64_t h = 1469598103934665603ull;
                for (unsigned w = 0; w < _valueWords; ++w) {
                    h ^= image.read64(slot + slotHeaderBytes +
                                      w * 8ull);
                    h *= 1099511628211ull;
                }
                os << "t" << t << " g" << g << " s" << s << ": k"
                   << key << " gen" << gen << " v" << h << "\n";
            }
        }
    }
    return os.str();
}

std::string
GenWorkload::checkInvariants(const MemoryImage &image) const
{
    std::ostringstream err;
    for (unsigned t = 0; t < _spec.tables; ++t) {
        for (std::uint64_t g = 0; g < _groups; ++g) {
            std::vector<std::uint64_t> states(slotsPerGroup);
            std::vector<std::uint64_t> keys;
            for (unsigned s = 0; s < slotsPerGroup; ++s) {
                const Addr slot =
                    groupBase(t, g) + s * std::uint64_t(_slotBytes);
                states[s] = image.read64(slot + 8);
                if (states[s] > stTombstone) {
                    err << "t" << t << " g" << g << " s" << s
                        << ": bad state " << states[s] << "\n";
                    continue;
                }
                if (states[s] != stOccupied)
                    continue;

                const std::uint64_t key = image.read64(slot);
                const std::uint64_t gen = image.read64(slot + 16);
                if (tableOf(key) != t || groupOf(key) != g) {
                    err << "t" << t << " g" << g << " s" << s
                        << ": key " << key << " in the wrong group\n";
                }
                if (gen == 0) {
                    err << "t" << t << " g" << g << " s" << s
                        << ": zero generation\n";
                }
                for (unsigned w = 0; w < _valueWords; ++w) {
                    const std::uint64_t got = image.read64(
                        slot + slotHeaderBytes + w * 8ull);
                    if (got != valueWord(key, gen, w)) {
                        err << "t" << t << " g" << g << " s" << s
                            << ": value word " << w
                            << " does not match (key " << key
                            << ", gen " << gen << ")\n";
                        break;
                    }
                }
                if (std::find(keys.begin(), keys.end(), key) !=
                    keys.end()) {
                    err << "t" << t << " g" << g << ": duplicate key "
                        << key << "\n";
                }
                keys.push_back(key);
            }
            // Probe-path reachability: walking from a key's home slot,
            // no empty slot may appear before the slot holding it —
            // deletes tombstone, they never re-empty a slot.
            for (unsigned s = 0; s < slotsPerGroup; ++s) {
                if (states[s] != stOccupied)
                    continue;
                const Addr slot =
                    groupBase(t, g) + s * std::uint64_t(_slotBytes);
                const std::uint64_t key = image.read64(slot);
                if (tableOf(key) != t || groupOf(key) != g)
                    continue;   // already reported above
                for (unsigned i = 0;; ++i) {
                    const unsigned idx =
                        (homeOf(key) + i) % slotsPerGroup;
                    if (idx == s)
                        break;
                    if (states[idx] == stEmpty) {
                        err << "t" << t << " g" << g << " s" << s
                            << ": key " << key
                            << " unreachable past empty slot " << idx
                            << "\n";
                        break;
                    }
                }
            }
        }
    }
    return err.str();
}

} // namespace wlgen

WorkloadRegistration
genWorkloadRegistration()
{
    return {WorkloadKind::Generated, "GEN", "gen",
            "declarative synthetic KV transactions (src/wlgen)",
            "--wl-spec k=v,... / --wl-spec-file FILE; keys: read, "
            "update, insert, delete, rmw, keys, vsize, tables, "
            "keyspace, populate, ops, dist, theta, hot-frac, hot-ops",
            false,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &extras)
                -> std::unique_ptr<Workload> {
                return std::make_unique<wlgen::GenWorkload>(
                    heap, scheme, params, extras.gen);
            }};
}

} // namespace proteus
