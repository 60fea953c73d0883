/**
 * @file
 * SHA-256 tests (DESIGN.md §14): both block compressors reproduce the
 * FIPS 180-4 examples and the padding-boundary lengths, and the
 * SHA-extension compressor agrees with the portable reference on
 * random messages fed in random update() splits. On a host without
 * the extensions the accelerated cases skip and say so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sweep/service/digest.hh"

namespace bvl
{
namespace
{

struct Example
{
    std::string message;
    const char *digest;
};

/** Bytes (7i + 3) mod 256 for i < n. */
std::string
pattern(std::size_t n)
{
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i)
        s[i] = char((i * 7 + 3) & 0xff);
    return s;
}

std::vector<Example>
examples()
{
    return {
        // FIPS 180-4 (and its examples document): empty, one block,
        // the 448-bit message whose padding needs a second block, and
        // one million 'a' (a whole number of blocks).
        {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
             "7852b855"},
        {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
                "f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db"
         "06c1"},
        {std::string(1000000, 'a'),
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc711"
         "2cd0"},
        // Lengths on either side of the padding and block boundaries,
        // digests from an independent SHA-256 implementation.
        {pattern(55), "e7313d333c272e639f790978283f9eb392e843d0f29b7016"
                      "828bb1daa4aac70b"},
        {pattern(63), "81c80242132f230c3bd41b3e63bbcff16107339549214a99"
                      "614ff26664625055"},
        {pattern(64), "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c8444"
                      "7cab3f3be1882241"},
        {pattern(65), "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbd"
                      "d48006f2d2fae95e"},
        {pattern(120), "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675"
                       "af9cabf1a13a04b5"},
    };
}

std::string
digest(Sha256::Compressor compress, const std::string &message)
{
    Sha256 d(compress);
    d.update(message.data(), message.size());
    return d.hex();
}

/** @p message fed to @p compress in random pieces of 0 to 200 bytes. */
std::string
digestInPieces(Sha256::Compressor compress, const std::string &message,
               std::mt19937_64 &rng)
{
    Sha256 d(compress);
    std::size_t at = 0;
    while (at < message.size()) {
        std::size_t n = std::min<std::size_t>(rng() % 201,
                                              message.size() - at);
        d.update(message.data() + at, n);
        at += n;
    }
    return d.hex();
}

void
expectExamples(Sha256::Compressor compress)
{
    for (const Example &e : examples())
        EXPECT_EQ(digest(compress, e.message), e.digest)
            << "message of " << e.message.size() << " bytes";
}

TEST(Sha256Test, PortableMatchesTheStandardsExamples)
{
    expectExamples(&Sha256::portable);
}

TEST(Sha256Test, AcceleratedMatchesTheStandardsExamples)
{
    Sha256::Compressor fast = Sha256::accelerated();
    if (!fast)
        GTEST_SKIP() << "this host has no SHA extensions";
    expectExamples(fast);
}

TEST(Sha256Test, SplitUpdatesAndBothCompressorsAgree)
{
    Sha256::Compressor fast = Sha256::accelerated();
    std::mt19937_64 rng(2024);
    for (int i = 0; i < 300; ++i) {
        std::string message(rng() % 4097, '\0');
        for (char &c : message)
            c = char(rng());
        std::string reference = digest(&Sha256::portable, message);
        EXPECT_EQ(digestInPieces(&Sha256::portable, message, rng),
                  reference) << message.size() << " bytes";
        // The process default, whichever compressor it chose.
        EXPECT_EQ(sha256Hex(message), reference) << message.size();
        if (fast) {
            EXPECT_EQ(digest(fast, message), reference)
                << message.size() << " bytes";
            EXPECT_EQ(digestInPieces(fast, message, rng), reference)
                << message.size() << " bytes";
        }
    }
    if (!fast)
        GTEST_SKIP() << "this host has no SHA extensions: only the "
                        "portable compressor was checked";
}

} // namespace
} // namespace bvl
