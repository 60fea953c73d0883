/**
 * @file
 * One name table per enum.
 *
 * An enum that has a text form (in run documents, journals, CLIs)
 * specializes EnumNames with its names in declaration order:
 *
 *   template <>
 *   struct EnumNames<RunStatus>
 *   {
 *       static constexpr const char *names[] = {"ok", "time_limit"};
 *   };
 *
 * and its name, its inverse and its value count all derive from that
 * one list, so adding a value means adding one name next to it.
 */

#ifndef BVL_SIM_ENUM_NAMES_HH
#define BVL_SIM_ENUM_NAMES_HH

#include <cstddef>
#include <iterator>
#include <optional>
#include <string_view>

namespace bvl
{

template <typename E>
struct EnumNames;

/** Number of values of @p E: the length of its name table. */
template <typename E>
constexpr unsigned
enumCount()
{
    return static_cast<unsigned>(std::size(EnumNames<E>::names));
}

/** The name of @p e; "?" for a value past the end of the table. */
template <typename E>
constexpr const char *
enumName(E e)
{
    auto i = static_cast<std::size_t>(e);
    return i < enumCount<E>() ? EnumNames<E>::names[i] : "?";
}

/** Inverse of enumName(); nullopt for a name not in the table. */
template <typename E>
constexpr std::optional<E>
enumFromName(std::string_view name)
{
    for (unsigned i = 0; i < enumCount<E>(); ++i)
        if (name == EnumNames<E>::names[i])
            return static_cast<E>(i);
    return std::nullopt;
}

} // namespace bvl

#endif // BVL_SIM_ENUM_NAMES_HH
