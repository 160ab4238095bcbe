#include "ckpt/ckpt.hh"

#include <cstring>
#include <istream>
#include <ostream>

#include "common/stats.hh"

namespace occamy::ckpt
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/** Section markers get a fixed sentinel so drift is caught early. */
constexpr std::uint32_t kSectionTag = 0x5EC70000U;

std::uint64_t
fnv1a(std::uint64_t h, unsigned char c)
{
    return (h ^ c) * kFnvPrime;
}

} // namespace

// --------------------------------------------------------------- Writer

Writer::Writer(std::ostream &os)
    : os_(os), buf_(os.rdbuf()), hash_(kFnvOffset)
{
    put(kMagic, 4);
    put(kVersion, 4);
}

void
Writer::put(std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i) {
        const auto c = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
        hash_ = fnv1a(hash_, c);
        // Straight to the stream buffer: a per-byte ostream::put pays
        // for a sentry on every call. A failed write marks the stream
        // bad, which finish() reports.
        if (!buf_ || std::ostream::traits_type::eq_int_type(
                         buf_->sputc(static_cast<char>(c)),
                         std::ostream::traits_type::eof()))
            os_.setstate(std::ios::badbit);
    }
}

void
Writer::u64(const stats::Counter &c)
{
    put(c.value(), 8);
}

void
Writer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    put(bits, 8);
}

void
Writer::b(bool v)
{
    put(v ? 1 : 0, 1);
}

void
Writer::str(std::string_view s)
{
    put(s.size(), 8);
    for (char c : s)
        put(static_cast<unsigned char>(c), 1);
}

void
Writer::section(std::string_view name)
{
    put(kSectionTag, 4);
    str(name);
}

void
Writer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // The trailer itself is not hashed: freeze the digest first.
    const std::uint64_t digest = hash_;
    put(digest, 8);
    os_.flush();
    if (!os_)
        throw Error("checkpoint write failed (output stream error)");
}

// --------------------------------------------------------------- Reader

Reader::Reader(std::istream &is)
    : buf_(is.rdbuf()), hash_(kFnvOffset)
{
    if (get(4) != kMagic)
        throw Error("not an Occamy checkpoint (bad magic)");
    const std::uint64_t version = get(4);
    if (version != kVersion)
        throw Error("unsupported checkpoint format version " +
                    std::to_string(version) + " (this build reads version " +
                    std::to_string(kVersion) +
                    (version > kVersion ? "; the file is from a newer build)"
                                        : "; re-create the checkpoint)"));
}

int
Reader::raw()
{
    // Straight from the stream buffer, as in Writer::put.
    return buf_ ? buf_->sbumpc() : std::istream::traits_type::eof();
}

unsigned char
Reader::byte()
{
    const int c = raw();
    if (c == std::istream::traits_type::eof())
        throw Error("truncated checkpoint (unexpected end of stream)");
    const auto uc = static_cast<unsigned char>(c);
    hash_ = fnv1a(hash_, uc);
    return uc;
}

std::uint64_t
Reader::get(int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= std::uint64_t{byte()} << (8 * i);
    return v;
}

bool
Reader::getBool()
{
    const std::uint64_t v = get(1);
    check(v <= 1, "corrupt checkpoint (bad boolean)");
    return v != 0;
}

std::size_t
Reader::length(std::size_t maxLen)
{
    const std::uint64_t n = get(8);
    if (n > maxLen)
        throw Error("corrupt checkpoint (implausible array length " +
                    std::to_string(n) + ")");
    return static_cast<std::size_t>(n);
}

void
Reader::u64(stats::Counter &c)
{
    c.set(get(8));
}

void
Reader::f64(double &v)
{
    const std::uint64_t bits = get(8);
    std::memcpy(&v, &bits, sizeof v);
}

void
Reader::str(std::string &s)
{
    const std::size_t n = length(kMaxLen);
    s.clear();
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(static_cast<char>(byte()));
}

void
Reader::section(std::string_view name)
{
    if (get(4) != kSectionTag)
        throw Error("corrupt checkpoint (expected section '" +
                    std::string(name) + "' marker)");
    std::string got;
    str(got);
    if (got != name)
        throw Error("checkpoint section mismatch (expected '" +
                    std::string(name) + "', found '" + got + "')");
}

void
Reader::len(std::uint64_t n, std::string_view what)
{
    if (get(8) != n)
        throw Error(std::string(what));
}

void
Reader::check(bool cond, const std::string &msg)
{
    if (!cond)
        throw Error(msg);
}

void
Reader::finish()
{
    // Freeze the digest before consuming the (unhashed) trailer.
    const std::uint64_t expect = hash_;
    std::uint64_t trailer = 0;
    for (int i = 0; i < 8; ++i) {
        const int c = raw();
        if (c == std::istream::traits_type::eof())
            throw Error("truncated checkpoint (missing checksum trailer)");
        trailer |= std::uint64_t{static_cast<unsigned char>(c)} << (8 * i);
    }
    if (trailer != expect)
        throw Error("corrupt checkpoint (checksum mismatch)");
}

} // namespace occamy::ckpt
