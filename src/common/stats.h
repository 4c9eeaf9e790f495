/**
 * @file
 * Lightweight statistics: fixed-slot (enum-indexed) counters with a name
 * table for reporting.
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

} // namespace safemem
