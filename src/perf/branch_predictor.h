/**
 * @file
 * Configurable branch predictor models.
 *
 * The in-order core model charges a fixed mispredict penalty whenever the
 * predictor disagrees with the actual branch outcome reported by the
 * front end (the "paths of branches" dynamic information of paper §3.1).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fixed_types.h"
#include "common/stats.h"

namespace graphite
{

namespace snapshot
{
class Archive;
} // namespace snapshot

/** Abstract branch direction predictor. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Predict then train on the actual outcome.
     * @param site  static branch site identifier (stands in for the PC)
     * @param taken actual direction
     * @return true when the prediction was correct
     */
    virtual bool predictAndTrain(addr_t site, bool taken) = 0;

    /** @name Statistics @{ */
    stat_t predictions() const { return predictions_; }
    stat_t mispredictions() const { return mispredictions_; }
    /** @} */

    /**
     * Factory for config value "none" (always correct — disables the
     * penalty), "always_taken", "one_bit", or "two_bit".
     */
    static std::unique_ptr<BranchPredictor>
    create(const std::string& type, size_t table_size);

    /**
     * Checkpoint serialization: the counters, then the table() as a
     * length-prefixed blob (empty for a stateless predictor).
     */
    void serialize(snapshot::Archive& ar);

  protected:
    /** The predictor's state table; nullptr when it keeps none. */
    virtual std::vector<std::uint8_t>* table() { return nullptr; }

    void
    record(bool correct)
    {
        ++predictions_;
        if (!correct)
            ++mispredictions_;
    }

  private:
    stat_t predictions_ = 0;
    stat_t mispredictions_ = 0;
};

/** Perfect predictor: modeling disabled. */
class NullBranchPredictor : public BranchPredictor
{
  public:
    bool predictAndTrain(addr_t site, bool taken) override;
};

/** Static predict-taken. */
class AlwaysTakenBranchPredictor : public BranchPredictor
{
  public:
    bool predictAndTrain(addr_t site, bool taken) override;
};

/** Last-direction table predictor. */
class OneBitBranchPredictor : public BranchPredictor
{
  public:
    explicit OneBitBranchPredictor(size_t table_size);
    bool predictAndTrain(addr_t site, bool taken) override;

  protected:
    std::vector<std::uint8_t>* table() override { return &table_; }

  private:
    std::vector<std::uint8_t> table_;
};

/** Saturating two-bit counter table predictor. */
class TwoBitBranchPredictor : public BranchPredictor
{
  public:
    explicit TwoBitBranchPredictor(size_t table_size);
    bool predictAndTrain(addr_t site, bool taken) override;

  protected:
    std::vector<std::uint8_t>* table() override { return &table_; }

  private:
    std::vector<std::uint8_t> table_; ///< states 0..3; >=2 predicts taken
};

} // namespace graphite
