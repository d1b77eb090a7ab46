#include "server/batch_scorer.hh"

#include <chrono>

#include "common/logging.hh"
#include "common/units.hh"

namespace asr::server {

BatchScorer::BatchScorer(const pipeline::AsrModel &model)
    : model(model)
{
}

std::size_t
BatchScorer::score(std::span<StreamingSession *const> sessions,
                   const acoustic::ParallelFor &par)
{
    bases_.resize(sessions.size());
    rows_.resize(sessions.size());
    totalRows = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        bases_[i] = totalRows;
        rows_[i] = sessions[i] ? sessions[i]->pendingRows() : 0;
        totalRows += rows_[i];
    }
    forwardSeconds = 0.0;
    if (totalRows == 0)
        return 0;

    const auto t0 = std::chrono::steady_clock::now();
    acoustic::Matrix input(totalRows, model.backend().inputDim());
    for (std::size_t i = 0; i < sessions.size(); ++i)
        if (rows_[i] > 0)
            sessions[i]->exportPending(input, bases_[i]);
    scores_ = model.backend().scoreBatch(input, par);
    forwardSeconds = secondsSince(t0);
    return totalRows;
}

double
BatchScorer::secondsShare(std::size_t i) const
{
    ASR_ASSERT(i < rows_.size(), "session index out of range");
    return totalRows > 0
               ? forwardSeconds * double(rows_[i]) / double(totalRows)
               : 0.0;
}

} // namespace asr::server
