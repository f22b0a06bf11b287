#include "common/text_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace hnoc
{

bool
writeTextFile(const std::string &path, const std::string &data,
              const char *dir_env)
{
    std::string target = path;
    // Redirect by base name (npos + 1 == 0 keeps a bare name whole).
    if (const char *dir = dir_env ? std::getenv(dir_env) : nullptr)
        target = std::string(dir) + "/" +
                 path.substr(path.find_last_of('/') + 1);
    std::FILE *f = std::fopen(target.c_str(), "w");
    if (!f) {
        warn("cannot open %s: %s", target.c_str(), std::strerror(errno));
        return false;
    }
    bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        warn("cannot write %s: %s", target.c_str(), std::strerror(errno));
    return ok;
}

} // namespace hnoc
