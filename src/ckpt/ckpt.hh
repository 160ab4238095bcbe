/**
 * @file
 * Versioned binary checkpoint streams (DESIGN.md §11).
 *
 * A checkpoint is a little-endian byte stream with a fixed header
 * (magic "OCKP", format version), a sequence of named sections, and
 * an FNV-1a checksum trailer covering every byte in between.  The
 * Writer/Reader pair below is deliberately dumb: fixed-width scalars,
 * length-prefixed strings and sequences, and section markers.  All
 * policy about *what* goes in a checkpoint lives with the components
 * themselves: each stateful class has one `template <class Ar> void
 * io(Ar &ar)` body that both saves (Ar = Writer) and restores
 * (Ar = Reader) by naming every field once, and System::io owns the
 * section order.  Writer and Reader therefore expose the same calls;
 * load-only steps (replay, validation) sit under
 * `if constexpr (Ar::kLoading)`.
 *
 * Failure handling is exception-based: every malformed input —
 * wrong magic, unsupported version, truncation, checksum mismatch,
 * section-name drift, implausible lengths — throws ckpt::Error
 * with a message naming the problem.  Sequences grow one element at a
 * time, so a corrupt length runs into the end of the stream instead
 * of a huge allocation.  Readers never return partially restored
 * state to the caller: System::restoreCheckpoint builds the target
 * into a fresh context and only installs it after finish() verifies
 * the trailer.
 */

#ifndef OCCAMY_CKPT_CKPT_HH
#define OCCAMY_CKPT_CKPT_HH

#include <cstdint>
#include <iosfwd>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace occamy::stats
{
class Counter;
} // namespace occamy::stats

namespace occamy::ckpt
{

/** Every checkpoint failure mode surfaces as this exception. */
class Error : public std::runtime_error
{
public:
    explicit Error(const std::string &what) : std::runtime_error(what) {}
};

/** "OCKP" read back as a little-endian u32. */
constexpr std::uint32_t kMagic = 0x504B434FU;

/**
 * Bump on any layout change.  Policy (DESIGN.md §11): there is no
 * in-place migration — a reader accepts exactly its own version and
 * rejects everything else with a message naming both versions, so a
 * stale file fails loudly instead of deserializing garbage.
 */
constexpr std::uint32_t kVersion = 1;

/** Default bound on a sequence length read back from a stream. */
constexpr std::size_t kMaxLen = std::size_t{1} << 28;

/**
 * Serializes fields to a stream while accumulating the checksum.
 * Each width-typed call converts its field to the named wire width.
 */
class Writer
{
public:
    static constexpr bool kLoading = false;

    /** Writes the magic/version header immediately. */
    explicit Writer(std::ostream &os);

    template <class T> void u8(const T &v) { put(std::uint8_t(v), 1); }
    template <class T> void u16(const T &v) { put(std::uint16_t(v), 2); }
    template <class T> void u32(const T &v) { put(std::uint32_t(v), 4); }
    template <class T> void u64(const T &v) { put(std::uint64_t(v), 8); }
    void u64(const stats::Counter &c);
    template <class T>
    void i64(const T &v)
    {
        put(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)), 8);
    }
    /** Bit-exact: the IEEE-754 pattern round-trips unchanged. */
    void f64(double v);
    void b(bool v);
    void str(std::string_view s);

    /** Marks the start of a named section. */
    void section(std::string_view name);

    /** A u64 the reader requires to equal @p n (failing with @p what). */
    void len(std::uint64_t n, std::string_view) { put(n, 8); }

    /** Length-prefixed sequence: @p fn serializes each element. */
    template <class C, class F>
    void seq(C &c, F &&fn, std::size_t = kMaxLen)
    {
        put(c.size(), 8);
        for (auto &&e : c)
            fn(e);
    }

    /** Writes the checksum trailer; the Writer is dead afterwards. */
    void finish();

private:
    /** Little-endian low @p bytes bytes of @p v. */
    void put(std::uint64_t v, int bytes);

    std::ostream &os_;
    std::streambuf *buf_;
    std::uint64_t hash_;
    bool finished_ = false;
};

/** Mirror of Writer; throws Error on any malformed input. */
class Reader
{
public:
    static constexpr bool kLoading = true;

    /** Validates the magic/version header immediately. */
    explicit Reader(std::istream &is);

    template <class T> void u8(T &v) { v = static_cast<T>(get(1)); }
    template <class T> void u16(T &v) { v = static_cast<T>(get(2)); }
    template <class T> void u32(T &v) { v = static_cast<T>(get(4)); }
    template <class T> void u64(T &v) { v = static_cast<T>(get(8)); }
    void u64(stats::Counter &c);
    template <class T>
    void i64(T &v)
    {
        v = static_cast<T>(static_cast<std::int64_t>(get(8)));
    }
    void f64(double &v);
    /** Forwarding so std::vector<bool> element proxies bind too. */
    template <class T> void b(T &&v) { v = getBool(); }
    void str(std::string &s);

    /** Reads a section marker; mismatch means drift or corruption. */
    void section(std::string_view name);

    /** Reads a u64 and throws Error(@p what) unless it equals @p n. */
    void len(std::uint64_t n, std::string_view what);

    /**
     * Reads a length (at most @p maxLen) and rebuilds @p c one
     * default element at a time, each filled by @p fn.  Growing
     * per element means a corrupt length hits the end of the stream
     * ("truncated") before it can ask for a huge allocation.
     */
    template <class C, class F>
    void seq(C &c, F &&fn, std::size_t maxLen = kMaxLen)
    {
        const std::size_t n = length(maxLen);
        c.clear();
        for (std::size_t i = 0; i < n; ++i) {
            c.push_back({});
            fn(c.back());
        }
    }

    /** Convenience guard: throws Error(msg) when cond is false. */
    static void check(bool cond, const std::string &msg);

    /** Verifies the checksum trailer. */
    void finish();

private:
    /** Next byte of the stream, or EOF; not hashed. */
    int raw();
    unsigned char byte();
    /** Little-endian value of the next @p bytes bytes. */
    std::uint64_t get(int bytes);
    bool getBool();
    std::size_t length(std::size_t maxLen);

    std::streambuf *buf_;
    std::uint64_t hash_;
};

/** A min-heap of u64-sized values travels as its ascending drain
 *  order and is rebuilt by pushing in that order. */
template <class Ar, class T, class Cmp>
void
heap(Ar &ar, std::priority_queue<T, std::vector<T>, Cmp> &h)
{
    std::vector<T> drained;
    if constexpr (!Ar::kLoading)
        for (auto copy = h; !copy.empty(); copy.pop())
            drained.push_back(copy.top());
    ar.seq(drained, [&](T &v) { ar.u64(v); });
    if constexpr (Ar::kLoading) {
        h = {};
        for (const T &v : drained)
            h.push(v);
    }
}

} // namespace occamy::ckpt

/** Explicitly instantiates @p T::io for both archives, so headers only
 *  declare io and its body stays in one .cc file. */
#define OCCAMY_CKPT_IO(T)                                                 \
    template void T::io(::occamy::ckpt::Writer &);                       \
    template void T::io(::occamy::ckpt::Reader &)

#endif // OCCAMY_CKPT_CKPT_HH
