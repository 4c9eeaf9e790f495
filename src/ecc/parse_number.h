/**
 * @file
 * The one number parser behind the codec, geometry and CLI specs.
 */

#pragma once

#include <charconv>
#include <optional>
#include <string_view>

namespace safemem {

/**
 * @return @p text as a T when the whole of it is a decimal number T can
 * hold (for a floating T, `0.25` or `1e-3`, but no hex form); nullopt
 * for an empty string, a space, a suffix, a plus sign, a minus sign on
 * an unsigned T, or a value out of T's range — so nothing is silently
 * truncated, skipped or narrowed.
 */
template <typename T>
std::optional<T>
parseWholeNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end)
        return std::nullopt;
    return value;
}

/**
 * Store parseWholeNumber<T>(@p text) in @p out. @return false, leaving
 * @p out untouched, when @p text is not a whole number T can hold.
 */
template <typename T>
bool
parseWholeNumber(std::string_view text, T &out)
{
    std::optional<T> value = parseWholeNumber<T>(text);
    if (value)
        out = *value;
    return value.has_value();
}

} // namespace safemem
