/**
 * @file
 * The satellite: stream raw audio to a running asr_server and print
 * the hypothesis as it evolves.
 *
 *   $ ./tools/satellite [--retry-budget N] [--deadline-ms D] \
 *         <host> <port> [audio.f32]
 *
 * Audio is raw float32 little-endian mono at 16 kHz (what
 * `asr_server --emit-demo-audio` writes); with no file argument it
 * is read from stdin.  The client connects and opens one stream with
 * jittered-backoff retry loops (at most N attempts each, default 10
 * connects / 100 opens scaled by N when given), pushes 10 ms chunks,
 * polls the partial hypothesis between chunks, and prints every
 * change before the final result.  --deadline-ms puts a whole-stream
 * budget on the wire; past it the server answers DEADLINE_EXCEEDED.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "net/client.hh"

using namespace asr;

namespace {

constexpr std::size_t kChunkSamples = 160; // 10 ms at 16 kHz

bool
readAudio(const char *path, std::vector<float> &samples)
{
    std::FILE *f = path ? std::fopen(path, "rb") : stdin;
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return false;
    }
    float buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, sizeof(float), 4096, f)) > 0)
        samples.insert(samples.end(), buf, buf + n);
    if (path)
        std::fclose(f);
    return !samples.empty();
}

void
printWords(const std::vector<wfst::WordId> &words)
{
    if (words.empty()) {
        std::printf("(silence)");
        return;
    }
    for (const auto w : words)
        std::printf(" w%u", w);
}

} // namespace

int
main(int argc, char **argv)
{
    // A hub hanging up mid-push must surface as a failed send, not
    // kill the satellite before it can report the error.
    std::signal(SIGPIPE, SIG_IGN);
    unsigned retry_budget = 0;  // 0 = the defaults below
    unsigned long deadline_ms = 0;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--retry-budget") == 0 &&
            i + 1 < argc) {
            retry_budget =
                parseCountArg(argv[++i], "retry budget", 1u << 16);
        } else if (std::strcmp(argv[i], "--deadline-ms") == 0 &&
                   i + 1 < argc) {
            deadline_ms =
                parseCountArg(argv[++i], "deadline", 1u << 30);
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() < 2) {
        std::fprintf(
            stderr,
            "usage: %s [--retry-budget N] [--deadline-ms D] "
            "<host> <port> [audio.f32]\n"
            "  audio: raw float32 LE mono @16 kHz "
            "(stdin when omitted)\n",
            argv[0]);
        return EXIT_FAILURE;
    }
    const std::string host = positional[0];
    const unsigned long port = parsePortArg(positional[1]);
    if (port == 0) {
        std::fprintf(stderr, "port 0 cannot be dialled\n");
        return EXIT_FAILURE;
    }

    std::vector<float> samples;
    if (!readAudio(positional.size() > 2 ? positional[2] : nullptr,
                   samples)) {
        std::fprintf(stderr, "no audio to stream\n");
        return EXIT_FAILURE;
    }
    std::printf("streaming %zu samples (%.2f s) to %s:%lu\n",
                samples.size(), double(samples.size()) / 16000.0,
                host.c_str(), port);

    net::Client client;
    const unsigned connect_attempts =
        retry_budget ? retry_budget : 10;
    const unsigned open_attempts = retry_budget ? retry_budget : 100;
    if (!client.connectRetrying(host, std::uint16_t(port),
                                connect_attempts)) {
        std::fprintf(stderr, "connect failed: %s\n",
                     client.lastError().c_str());
        return EXIT_FAILURE;
    }

    constexpr std::uint32_t kStream = 1;
    if (!client.openStreamRetrying(kStream, open_attempts,
                                   std::uint32_t(deadline_ms))) {
        std::fprintf(stderr, "open failed: %s\n",
                     client.lastError().c_str());
        return EXIT_FAILURE;
    }

    std::vector<wfst::WordId> last;
    bool printed = false;
    for (std::size_t off = 0; off < samples.size();
         off += kChunkSamples) {
        const std::size_t len =
            std::min(kChunkSamples, samples.size() - off);
        if (!client.pushChunk(
                kStream, std::span<const float>(
                             samples.data() + off, len))) {
            std::fprintf(stderr, "push failed: %s\n",
                         client.lastError().c_str());
            return EXIT_FAILURE;
        }
        std::vector<wfst::WordId> words;
        if (!client.requestPartial(kStream, words)) {
            std::fprintf(stderr, "partial failed: %s\n",
                         client.lastError().c_str());
            return EXIT_FAILURE;
        }
        if (!words.empty() && words != last) {
            std::printf("  partial @%5.2fs:",
                        double(off + len) / 16000.0);
            printWords(words);
            std::printf("\n");
            last = words;
            printed = true;
        }
    }
    if (!printed)
        std::printf("  (no partials stabilized mid-stream)\n");

    net::FinalResult result;
    if (!client.finishStream(kStream, result)) {
        if (client.deadlineExceeded()) {
            std::fprintf(stderr, "stream foreclosed: %s\n",
                         client.lastError().c_str());
            return EXIT_FAILURE;
        }
        std::fprintf(stderr, "finish failed: %s\n",
                     client.lastError().c_str());
        return EXIT_FAILURE;
    }
    std::printf("final (%.2f s audio, score %.3f%s):",
                result.audioSeconds, double(result.score),
                result.degraded ? ", degraded" : "");
    printWords(result.words);
    std::printf("\n");
    client.disconnect();
    return EXIT_SUCCESS;
}
