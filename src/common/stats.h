/**
 * @file
 * Lightweight statistics: fixed-slot (enum-indexed) counters with a name
 * table for reporting, plus a fixed-bucket histogram used by the
 * lifetime analysis.
 *
 * Every counter is an enum slot: `stats_.add(CacheStat::Hits)` is one
 * array increment, fully inlineable. The registered name table keeps
 * every counter visible under its historical string key, so driver
 * snapshots (`all()`), `get("hits")` reads and the report writer see
 * the same name->value map the old string-keyed implementation produced.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace safemem {

/**
 * A bag of named 64-bit counters. Modules expose one StatSet each; the
 * experiment driver snapshots them into its result records.
 *
 * A StatSet constructed with a slot-name table owns one flat counter per
 * name. Writes address a counter by its enum; reads may also name it by
 * string (reporting, tests), which resolves to the same slot.
 */
class StatSet
{
  public:
    StatSet() = default;

    /**
     * Register fixed slots. `names[i]` names slot `i`; the module's stat
     * enum must list its enumerators in the same order.
     */
    template <std::size_t N>
    explicit StatSet(const char *const (&names)[N])
        : slotNames_(names, names + N), slotValues_(N, 0), slotTouched_(N, 0)
    {}

    /** Add @p delta to the slot @p stat indexes. */
    template <typename E,
              std::enable_if_t<std::is_enum_v<E>, int> = 0>
    void
    add(E stat, std::uint64_t delta = 1)
    {
        std::size_t idx = static_cast<std::size_t>(stat);
        slotTouched_[idx] = 1;
        slotValues_[idx] += delta;
    }

    /** Overwrite the slot @p stat indexes with @p value. */
    template <typename E,
              std::enable_if_t<std::is_enum_v<E>, int> = 0>
    void
    set(E stat, std::uint64_t value)
    {
        std::size_t idx = static_cast<std::size_t>(stat);
        slotTouched_[idx] = 1;
        slotValues_[idx] = value;
    }

    /** Track the maximum of values reported for slot @p stat. */
    template <typename E,
              std::enable_if_t<std::is_enum_v<E>, int> = 0>
    void
    maxOf(E stat, std::uint64_t value)
    {
        std::size_t idx = static_cast<std::size_t>(stat);
        if (!slotTouched_[idx] || slotValues_[idx] < value) {
            slotTouched_[idx] = 1;
            slotValues_[idx] = value;
        }
    }

    /** @return the slot value, or 0 when never touched. */
    template <typename E,
              std::enable_if_t<std::is_enum_v<E>, int> = 0>
    std::uint64_t
    get(E stat) const
    {
        return slotValues_[static_cast<std::size_t>(stat)];
    }

    /**
     * @return the value of the slot named @p name — the read-only
     * reporting view — or 0 when it was never touched or no slot has
     * that name.
     */
    std::uint64_t
    get(const std::string &name) const
    {
        for (std::size_t i = 0; i < slotNames_.size(); ++i) {
            if (std::strcmp(slotNames_[i], name.c_str()) == 0)
                return slotValues_[i];
        }
        return 0;
    }

    /**
     * Snapshot every touched slot under its registered name, sorted by
     * name. Untouched slots are omitted, matching the old
     * created-on-first-use behaviour.
     */
    std::map<std::string, std::uint64_t>
    all() const
    {
        std::map<std::string, std::uint64_t> snapshot;
        for (std::size_t i = 0; i < slotNames_.size(); ++i) {
            if (slotTouched_[i])
                snapshot[slotNames_[i]] = slotValues_[i];
        }
        return snapshot;
    }

    /** @return the registered slot-name table (reporting, tests). */
    const std::vector<const char *> &slotNames() const { return slotNames_; }

    /** Zero every counter. */
    void
    clear()
    {
        slotValues_.assign(slotValues_.size(), 0);
        slotTouched_.assign(slotTouched_.size(), 0);
    }

  private:
    std::vector<const char *> slotNames_;
    std::vector<std::uint64_t> slotValues_;
    /** Slot ever written? Distinguishes "0" from "never touched". */
    std::vector<std::uint8_t> slotTouched_;
};

/**
 * Histogram over a fixed linear bucket width. Used for object-lifetime and
 * warm-up-time distributions (Figure 3).
 */
class Histogram
{
  public:
    /** @param bucket_width width of every bucket (> 0). */
    explicit Histogram(std::uint64_t bucket_width = 1)
        : bucketWidth_(bucket_width ? bucket_width : 1)
    {}

    /** Record one sample. */
    void
    record(std::uint64_t value)
    {
        std::size_t idx = value / bucketWidth_;
        if (idx >= buckets_.size())
            buckets_.resize(idx + 1, 0);
        ++buckets_[idx];
        ++count_;
    }

    /** @return total samples recorded. */
    std::uint64_t count() const { return count_; }

    /**
     * @return estimated fraction of samples with value <= @p value; 0
     * when empty.
     *
     * Buckets entirely at or below @p value contribute fully; the bucket
     * containing a mid-bucket @p value contributes linearly interpolated
     * mass (`(value - bucket_start + 1) / bucket_width` of its samples),
     * since exact positions within a bucket are not recorded. The old
     * behaviour counted that whole bucket, over-reporting the CDF for
     * every mid-bucket query.
     */
    double
    cumulativeAt(std::uint64_t value) const
    {
        if (count_ == 0)
            return 0.0;
        std::size_t bucket = value / bucketWidth_;
        double below = 0.0;
        for (std::size_t i = 0; i < buckets_.size() && i < bucket; ++i)
            below += static_cast<double>(buckets_[i]);
        if (bucket < buckets_.size()) {
            double fraction =
                static_cast<double>(value - bucket * bucketWidth_ + 1) /
                static_cast<double>(bucketWidth_);
            below += static_cast<double>(buckets_[bucket]) * fraction;
        }
        return below / static_cast<double>(count_);
    }

  private:
    std::uint64_t bucketWidth_;
    std::uint64_t count_ = 0;
    std::vector<std::uint64_t> buckets_;
};

} // namespace safemem
