#include "soc/checkpoint_farm.hh"

#include <cstdlib>

#include "sim/env.hh"
#include "soc/checkpoint.hh"
#include "sweep/service/digest.hh"
#include "sweep/service/job_hash.hh"

namespace bvl
{

std::string
CheckpointFarm::defaultDir()
{
    const char *env = std::getenv("BVL_CKPT_DIR");
    return env && *env ? env : ".bvl-ckpt";
}

std::uint64_t
CheckpointFarm::budgetBytesFromEnv()
{
    return std::uint64_t(envInt("BVL_CKPT_BUDGET_MB", 0, 0,
                                1ll << 30)) *
           (1ull << 20);
}

std::string
CheckpointFarm::prefixHashHex(const std::string &workloadName,
                              std::uint64_t ffInsts,
                              const std::string &flavor,
                              std::uint64_t vlenBits,
                              const std::string &inputSha)
{
    Sha256 d;
    auto feed = [&](const std::string &s) {
        d.update(s.data(), s.size());
        d.update("\0", 1);
    };
    feed(workloadName);
    feed(std::to_string(ffInsts));
    feed(flavor);
    feed(std::to_string(vlenBits));
    feed(inputSha);
    feed(kLibraryRevision);
    return d.hex();
}

ContentStore
CheckpointFarm::open(const std::string &dir)
{
    return ContentStore(dir.empty() ? defaultDir() : dir,
                        kCheckpointKind, state());
}

ContentStore::State &
CheckpointFarm::state()
{
    static ContentStore::State farm;
    return farm;
}

} // namespace bvl
