#include "mem/cache.hh"

#include <algorithm>
#include <bit>

namespace ccnuma
{

const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid: return "I";
      case LineState::Shared: return "S";
      case LineState::Exclusive: return "E";
      case LineState::Modified: return "M";
    }
    return "?";
}

SetAssocCache::SetAssocCache(const std::string &name,
                             std::uint64_t size_bytes, unsigned assoc,
                             unsigned line_bytes)
    : name_(name), lineBytes_(line_bytes), assoc_(assoc),
      statGroup_(name)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        fatal("cache %s: line size %u not a power of two",
              name.c_str(), line_bytes);
    if (assoc == 0)
        fatal("cache %s: associativity must be positive", name.c_str());
    std::uint64_t num_lines = size_bytes / line_bytes;
    if (num_lines == 0 || num_lines % assoc != 0)
        fatal("cache %s: %llu lines not divisible into %u ways",
              name.c_str(), (unsigned long long)num_lines, assoc);
    numSets_ = static_cast<unsigned>(num_lines / assoc);
    if ((numSets_ & (numSets_ - 1)) != 0)
        fatal("cache %s: set count %u not a power of two",
              name.c_str(), numSets_);
    lineShift_ = std::countr_zero(static_cast<unsigned>(lineBytes_));
    lines_.resize(num_lines);
    tags_.assign(num_lines, kNoLineNum);

    statGroup_.add(&statEvictions);
    statGroup_.add(&statDirtyEvictions);
    statGroup_.add(&statInvalidations);
}

CacheLine *
SetAssocCache::findLine(Addr addr)
{
    // Resolve before the tag compare: a corrupted tag must never
    // produce a false hit (or mask a true one).
    resolvePending();
    // Empty ways carry kNoLineNum, so tag equality alone decides a
    // hit; the way loop reads only the set's packed tags.
    Addr ln = addr >> lineShift_;
    if (ln >= kNoLineNum)
        return nullptr; // allocate() never admits such a line
    const std::uint32_t tag = static_cast<std::uint32_t>(ln);
    const std::size_t base = (ln & (numSets_ - 1)) * assoc_;
    const std::uint32_t *tags = tags_.data() + base;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (tags[w] == tag)
            return &lines_[base + w];
    }
    return nullptr;
}

const CacheLine *
SetAssocCache::findLine(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->findLine(addr);
}

CacheLine *
SetAssocCache::allocate(Addr addr, LineState st, Victim *victim)
{
    resolvePending();
    Addr la = lineAlign(addr);
    Addr ln = addr >> lineShift_;
    if (ln >= kNoLineNum) {
        fatal("cache %s: line address %#llx does not fit the 32-bit "
              "packed tag (line numbers must stay below %#llx)",
              name_.c_str(), (unsigned long long)la,
              (unsigned long long)kNoLineNum);
    }
    ccnuma_assert(findLine(addr) == nullptr);
    const std::size_t base = (ln & (numSets_ - 1)) * assoc_;
    std::size_t target = base + assoc_;
    for (std::size_t i = base; i < base + assoc_; ++i) {
        const CacheLine &line = lines_[i];
        if (!lineValid(line.state)) {
            target = i;
            break;
        }
        if (target == base + assoc_ ||
            line.lastUse < lines_[target].lastUse) {
            target = i;
        }
    }
    CacheLine *t = &lines_[target];
    if (victim) {
        victim->valid = lineValid(t->state);
        victim->lineAddr = t->lineAddr;
        victim->state = t->state;
        victim->version = t->version;
    }
    if (lineValid(t->state)) {
        ++statEvictions;
        if (t->state == LineState::Modified)
            ++statDirtyEvictions;
    }
    t->lineAddr = la;
    t->state = st;
    t->version = 0;
    tags_[target] = static_cast<std::uint32_t>(ln);
    touch(t);
    return t;
}

LineState
SetAssocCache::invalidate(Addr addr)
{
    CacheLine *line = findLine(addr);
    if (!line)
        return LineState::Invalid;
    LineState prior = line->state;
    line->state = LineState::Invalid;
    line->lineAddr = kNoLineTag;
    tags_[static_cast<std::size_t>(line - lines_.data())] = kNoLineNum;
    ++statInvalidations;
    return prior;
}

void
SetAssocCache::invalidateAll()
{
    // Correct first, then drop: pending repairs of lines about to be
    // discarded still count as corrected, keeping the ledger closed.
    resolvePending();
    for (auto &line : lines_) {
        line.state = LineState::Invalid;
        line.lineAddr = kNoLineTag;
    }
    std::fill(tags_.begin(), tags_.end(), kNoLineNum);
}

std::size_t
SetAssocCache::numValid() const
{
    resolvePending();
    std::size_t n = 0;
    for (const auto &line : lines_) {
        if (lineValid(line.state))
            ++n;
    }
    return n;
}

std::uint64_t
SetAssocCache::packWord(const CacheLine &l, unsigned w)
{
    switch (w) {
      case 0: return l.lineAddr;
      case 1: return l.version;
      default: return static_cast<std::uint64_t>(l.state);
    }
}

void
SetAssocCache::unpackWord(CacheLine &l, unsigned w, std::uint64_t v)
{
    switch (w) {
      case 0: l.lineAddr = v; break;
      case 1: l.version = v; break;
      default: l.state = static_cast<LineState>(v & 0xff); break;
    }
}

Addr
SetAssocCache::injectCeFlip(Random &rng)
{
    resolvePending();
    std::size_t valid = numValid();
    if (valid == 0)
        return kNoLineTag;
    std::size_t pick = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(valid)));
    std::size_t idx = lines_.size();
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (!lineValid(lines_[i].state))
            continue;
        if (pick-- == 0) {
            idx = i;
            break;
        }
    }
    ccnuma_assert(idx < lines_.size());
    CacheLine &l = lines_[idx];
    Addr victim_addr = l.lineAddr;
    unsigned word = static_cast<unsigned>(rng.below(3));
    std::uint64_t data = packWord(l, word);
    PendingCe ce;
    ce.lineIdx = idx;
    ce.word = word;
    ce.shadow = data;
    std::uint8_t check = ecc::encode(data);
    unsigned k = static_cast<unsigned>(rng.below(ecc::codewordBits));
    ecc::flipBit(data, check, k);
    ce.check = check;
    ce.corrupted = data;
    unpackWord(l, word, data);
    syncTag(idx);
    pendingCe_.push_back(ce);
    return victim_addr;
}

void
SetAssocCache::resolvePendingSlow() const
{
    std::vector<PendingCe> pending;
    pending.swap(pendingCe_);
    for (const PendingCe &ce : pending) {
        CacheLine &l = lines_[ce.lineIdx];
        ecc::EccResult r = ecc::decode(ce.corrupted, ce.check);
        ccnuma_assert(r.status == ecc::EccStatus::CorrectedData ||
                      r.status == ecc::EccStatus::CorrectedCheck);
        ccnuma_assert(r.data == ce.shadow);
        unpackWord(l, ce.word, r.data);
        syncTag(ce.lineIdx);
        ++eccCorrected_;
    }
}

} // namespace ccnuma
