#include "perf/branch_predictor.h"

#include <algorithm>

#include "common/log.h"
#include "snapshot/snapshot.h"

namespace graphite
{

bool
NullBranchPredictor::predictAndTrain(addr_t, bool)
{
    record(true);
    return true;
}

bool
AlwaysTakenBranchPredictor::predictAndTrain(addr_t, bool taken)
{
    record(taken);
    return taken;
}

OneBitBranchPredictor::OneBitBranchPredictor(size_t table_size)
    : table_(table_size ? table_size : 1, 1)
{
}

bool
OneBitBranchPredictor::predictAndTrain(addr_t site, bool taken)
{
    std::uint8_t& entry = table_[site % table_.size()];
    bool correct = (entry != 0) == taken;
    entry = taken ? 1 : 0;
    record(correct);
    return correct;
}

TwoBitBranchPredictor::TwoBitBranchPredictor(size_t table_size)
    : table_(table_size ? table_size : 1, 2)
{
}

bool
TwoBitBranchPredictor::predictAndTrain(addr_t site, bool taken)
{
    std::uint8_t& entry = table_[site % table_.size()];
    bool correct = (entry >= 2) == taken;
    if (taken) {
        if (entry < 3)
            ++entry;
    } else {
        if (entry > 0)
            --entry;
    }
    record(correct);
    return correct;
}

void
BranchPredictor::serialize(snapshot::Archive& ar)
{
    ar.u64(predictions_);
    ar.u64(mispredictions_);
    std::vector<std::uint8_t>* live = table();
    std::vector<std::uint8_t> saved;
    if (!ar.loading() && live != nullptr)
        saved = *live;
    ar.bytes(saved);
    // The table blob is length-prefixed, so a checkpoint forked into a
    // sweep with a different predictor size (or type) restores what
    // fits rather than misaligning the stream.
    if (ar.loading() && live != nullptr)
        std::copy_n(saved.begin(), std::min(saved.size(), live->size()),
                    live->begin());
}

std::unique_ptr<BranchPredictor>
BranchPredictor::create(const std::string& type, size_t table_size)
{
    if (type == "none")
        return std::make_unique<NullBranchPredictor>();
    if (type == "always_taken")
        return std::make_unique<AlwaysTakenBranchPredictor>();
    if (type == "one_bit")
        return std::make_unique<OneBitBranchPredictor>(table_size);
    if (type == "two_bit")
        return std::make_unique<TwoBitBranchPredictor>(table_size);
    fatal("unknown branch predictor type '{}'", type);
}

} // namespace graphite
