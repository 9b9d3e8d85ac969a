/*
 * insn_count: counts the instructions a program executes inside one
 * function, by ptrace single-stepping. x86-64 Linux only.
 *
 *   cc -O2 -o insn_count tools/insn_count/insn_count.c
 *   insn_count <function-address> <program> [args...]
 *
 * <function-address> is the function's address in the program's ELF file
 * (hex, as `nm` prints it; for a position-independent executable the load
 * base is added). The program runs under ptrace with a breakpoint at the
 * function's entry. Each time the breakpoint is hit, the function is
 * single-stepped until it returns to its caller, callees included, and
 * the steps are summed. The program's own output passes through; the
 * count is printed to stderr as
 *
 *   insn_count: <calls> call(s), <instructions> instruction(s)
 *
 * Only the traced program's main thread is followed, so the function must
 * run on it (the SwiftRL `Serial` engine does). Single-stepping runs at
 * roughly 10^4-10^5 steps per second: count a small run.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <inttypes.h>
#include <limits.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/types.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

static void die(const char *what) {
    perror(what);
    exit(2);
}

/* Load base of the traced program: the start of the first mapping of its
 * executable, which maps file offset 0. */
static uint64_t load_base(pid_t pid) {
    char path[64], exe[PATH_MAX], line[PATH_MAX + 128];
    snprintf(path, sizeof path, "/proc/%d/exe", (int)pid);
    ssize_t n = readlink(path, exe, sizeof exe - 1);
    if (n < 0)
        die("readlink");
    exe[n] = '\0';
    snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
    FILE *maps = fopen(path, "r");
    if (!maps)
        die("open maps");
    uint64_t base = 0;
    int found = 0;
    while (!found && fgets(line, sizeof line, maps)) {
        uint64_t start, offset;
        char file[PATH_MAX];
        file[0] = '\0';
        if (sscanf(line, "%" SCNx64 "-%*x %*s %" SCNx64 " %*s %*s %s", &start, &offset,
                   file) >= 2 &&
            offset == 0 && strcmp(file, exe) == 0) {
            base = start;
            found = 1;
        }
    }
    fclose(maps);
    if (!found) {
        fprintf(stderr, "insn_count: no mapping of %s\n", exe);
        exit(2);
    }
    return base;
}

static int wait_stop(pid_t pid, int *status) {
    if (waitpid(pid, status, 0) < 0)
        die("waitpid");
    return WIFSTOPPED(*status);
}

int main(int argc, char **argv) {
    if (argc < 3) {
        fprintf(stderr, "usage: insn_count <function-address> <program> [args...]\n");
        return 2;
    }
    uint64_t offset = strtoull(argv[1], NULL, 16);
    pid_t pid = fork();
    if (pid < 0)
        die("fork");
    if (pid == 0) {
        if (ptrace(PTRACE_TRACEME, 0, NULL, NULL) < 0)
            die("PTRACE_TRACEME");
        execvp(argv[2], argv + 2);
        die("execvp");
    }
    int status;
    if (!wait_stop(pid, &status)) {
        fprintf(stderr, "insn_count: the program did not start\n");
        return 2;
    }
    /* A non-PIE executable maps at its link address: add no base. */
    uint64_t base = load_base(pid);
    uint64_t addr = offset >= base ? offset : base + offset;
    errno = 0;
    long orig = ptrace(PTRACE_PEEKTEXT, pid, (void *)addr, NULL);
    if (errno)
        die("PTRACE_PEEKTEXT");
    long trap = (orig & ~0xffL) | 0xcc;
    if (ptrace(PTRACE_POKETEXT, pid, (void *)addr, (void *)trap) < 0)
        die("PTRACE_POKETEXT");

    uint64_t calls = 0, steps = 0;
    int sig = 0;
    for (;;) {
        if (ptrace(PTRACE_CONT, pid, NULL, (void *)(long)sig) < 0)
            die("PTRACE_CONT");
        sig = 0;
        if (!wait_stop(pid, &status))
            break;
        struct user_regs_struct regs;
        if (ptrace(PTRACE_GETREGS, pid, NULL, &regs) < 0)
            die("PTRACE_GETREGS");
        if (WSTOPSIG(status) != SIGTRAP || regs.rip - 1 != addr) {
            sig = WSTOPSIG(status) == SIGTRAP ? 0 : WSTOPSIG(status);
            continue;
        }
        /* At the breakpoint: put the instruction back and step the call. */
        regs.rip = addr;
        if (ptrace(PTRACE_SETREGS, pid, NULL, &regs) < 0)
            die("PTRACE_SETREGS");
        if (ptrace(PTRACE_POKETEXT, pid, (void *)addr, (void *)orig) < 0)
            die("PTRACE_POKETEXT");
        uint64_t entry_sp = regs.rsp;
        errno = 0;
        uint64_t ret = (uint64_t)ptrace(PTRACE_PEEKDATA, pid, (void *)entry_sp, NULL);
        if (errno)
            die("PTRACE_PEEKDATA");
        calls++;
        for (;;) {
            if (ptrace(PTRACE_SINGLESTEP, pid, NULL, NULL) < 0)
                die("PTRACE_SINGLESTEP");
            if (!wait_stop(pid, &status)) {
                fprintf(stderr, "insn_count: the program ended inside the function\n");
                return 2;
            }
            steps++;
            if (ptrace(PTRACE_GETREGS, pid, NULL, &regs) < 0)
                die("PTRACE_GETREGS");
            if (regs.rip == ret && regs.rsp > entry_sp)
                break;
        }
        if (ptrace(PTRACE_POKETEXT, pid, (void *)addr, (void *)trap) < 0)
            die("PTRACE_POKETEXT");
    }
    fprintf(stderr, "insn_count: %" PRIu64 " call(s), %" PRIu64 " instruction(s)\n", calls,
            steps);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
