// Command drmsfsck checks the integrity of archived checkpoint state: it
// loads a file-system snapshot (written by drmsrun -save-state or drmsd
// -state), resolves each user-facing checkpoint prefix to its rotated
// generations, and verifies every file's size and CRC-64 against the
// checkpoint metadata — all generations, not just the newest, because an
// older generation is the recovery supervisor's fallback when the newest
// turns out to be corrupt.
//
// Usage:
//
//	drmsrun -app bt -save-state /tmp/state.pfs
//	drmsfsck -state /tmp/state.pfs [-repair] [prefix ...]
//
// With no prefixes, every checkpoint base in the snapshot is checked.
//
// With -tier, a peer-memory tier snapshot (written by drmsrun
// -tier-state) is loaded alongside the file-system snapshot, and
// memory-resident payloads — diskless generations and TierMem piece
// locations — verify against their surviving replicas instead of
// failing outright. Without -tier, a memory-resident generation is
// (correctly) reported corrupt: its bytes live nowhere the snapshot
// can see.
//
// With -tiers, each generation's storage-tier residency is listed
// before it is checked: which tier the segment and each array's pieces
// live in, and — when -tier supplies a snapshot — how many CRC-valid
// replicas of each payload survive in peer memory.
// With -repair, corrupt generations are quarantined (renamed under
// "<gen>.bad.") exactly as the recovery supervisor would do at restart
// time, legacy generations (gob metadata of version 1 or 2, as every
// restart state saved by older builds has; version 1 also keeps one
// stream file per array; version 3 metadata, whose piece tables were
// fixed-width records; or a segment whose payload is a gob wrapper, as
// every checkpoint saved before the segment became a frame has) are
// upgraded in place to metadata version 4 over framed segments, a
// coordinator state store whose head holds a gob image or gob records
// (every store saved by older builds) gets that head's table, every
// record a frame, as one framed anchor, and the snapshot is saved back;
// package legacy holds these gob-era readers. Without -repair a legacy
// generation or state store is reported as needing it: no restart reads
// one.
//
// With -squash, each prefix whose newest generation is a chained delta
// is folded into a fresh self-contained anchor (ckpt.Squash): every
// referenced piece extent is copied — codec preserved — into the new
// generation's own files, the chain's older generations become
// prunable, and the snapshot is saved back. The new anchor is verified
// before the snapshot is written; chains are verified before squashing,
// so a broken dependency is reported rather than baked into an anchor.
//
// Exit codes:
//
//	0  clean: every committed generation of every prefix verifies
//	1  unrecoverable: some prefix has no verifiable generation at all,
//	   or holds a legacy generation or state image that needs -repair
//	2  usage error
//	3  repaired: corruption found, but every prefix still has a
//	   verifiable generation to restart from, or legacy generations
//	   were upgraded
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"drms/cmd/drmsfsck/internal/legacy"
	"drms/internal/ckpt"
	"drms/internal/pfs"
)

const (
	exitClean         = 0
	exitUnrecoverable = 1
	exitUsage         = 2
	exitRepaired      = 3
)

func main() {
	state := flag.String("state", "", "pfs snapshot file to check")
	repair := flag.Bool("repair", false, "quarantine corrupt generations, upgrade legacy ones (gob metadata of version 1 or 2, version 3 metadata, gob-wrapper segments, gob state images) to frames, and save the snapshot back")
	squash := flag.Bool("squash", false, "fold each verified delta chain into a self-contained anchor and save the snapshot back")
	tierState := flag.String("tier", "", "peer-memory tier snapshot (drmsrun -tier-state); memory-resident payloads then verify against surviving replicas")
	tiers := flag.Bool("tiers", false, "list each generation's storage-tier residency and replica counts before checking it")
	coverage := flag.Int("coverage", 0, "report, for an N-task replacement distribution, which ranks' sections a partial restore could serve and from which tier")
	flag.Parse()
	if *state == "" {
		fmt.Fprintln(os.Stderr, "usage: drmsfsck -state <snapshot> [-tier <snapshot>] [-tiers] [-coverage N] [-repair] [-squash] [prefix ...]")
		os.Exit(exitUsage)
	}
	fs := pfs.NewSystem(pfs.DefaultConfig())
	if err := fs.LoadFile(*state); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	var tier *ckpt.MemTier
	if *tierState != "" {
		var err error
		if tier, err = ckpt.LoadTierFile(*tierState); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitUsage)
		}
	}

	prefixes := flag.Args()
	if len(prefixes) == 0 {
		prefixes = discoverPrefixes(fs)
		if len(prefixes) == 0 {
			fmt.Println("no checkpoints in snapshot")
			return
		}
	}

	exit := exitClean
	repaired := false
	for _, p := range prefixes {
		if *tiers {
			listTiers(fs, tier, p)
		}
		if *coverage > 0 {
			listCoverage(fs, tier, p, *coverage)
		}
		res := checkPrefix(fs, tier, p, *repair, &repaired)
		switch res {
		case exitUnrecoverable:
			exit = exitUnrecoverable
		case exitRepaired:
			if exit == exitClean {
				exit = exitRepaired
			}
		}
		if *squash && res == exitClean {
			if !squashPrefix(fs, p, &repaired) {
				exit = exitUnrecoverable
			}
		}
	}
	if (*repair || *squash) && repaired {
		if err := fs.SaveFile(*state); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(exitUnrecoverable)
		}
		fmt.Printf("snapshot saved to %s\n", *state)
	}
	os.Exit(exit)
}

// squashPrefix folds prefix's newest (already verified) generation into
// a self-contained anchor, verifies the result, and compacts the
// rotation down to that single anchor. Only called on prefixes whose
// every generation verified clean. Reports success; *dirty is set when
// the snapshot changed.
func squashPrefix(fs *pfs.System, prefix string, dirty *bool) bool {
	if fs.Exists(prefix + ".meta") {
		// A bare (non-rotated) checkpoint has no chain to fold.
		return true
	}
	dst, squashed, err := ckpt.Squash(fs, prefix, 0)
	if err != nil {
		fmt.Printf("%-12s SQUASH FAILED: %v\n", prefix, err)
		return false
	}
	if !squashed {
		fmt.Printf("%-12s already self-contained, nothing to squash\n", dst)
		return true
	}
	if err := ckpt.Verify(fs, dst, 0); err != nil {
		fmt.Printf("%-12s SQUASH FAILED: new anchor does not verify: %v\n", dst, err)
		return false
	}
	// The chain the anchor replaced is fully contained in it; retire it.
	ckpt.Rotation{Base: prefix, Keep: 1}.Prune(fs)
	*dirty = true
	fmt.Printf("%-12s squashed chain into self-contained anchor %s\n", prefix, dst)
	return true
}

// listCoverage answers the localized-recovery planning question for a
// prefix's newest generation: if any rank of an N-task replacement
// distribution had to restore its sections right now, which tier would
// serve each needed piece — surviving peer memory, the pfs, or neither
// (lost: a partial restore of that rank would fall back to full
// restart)?
func listCoverage(fs *pfs.System, tier *ckpt.MemTier, prefix string, tasks int) {
	cov, err := ckpt.PartialCoverage(fs, tier, prefix, tasks)
	if err != nil {
		fmt.Printf("%-12s coverage: %v\n", prefix, err)
		return
	}
	names := make([]string, 0, len(cov))
	for n := range cov {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, rc := range cov[n] {
			status := "restorable"
			if rc.Lost > 0 {
				status = "NOT RESTORABLE"
			}
			fmt.Printf("%-12s coverage %s rank %d: %d pieces (%d mem, %d disk, %d lost) %s\n",
				prefix, n, rc.Rank, rc.Pieces, rc.Mem, rc.Disk, rc.Lost, status)
		}
	}
}

// discoverPrefixes lists the user-facing checkpoint prefixes in the
// snapshot: each meta file marks a committed checkpoint, and rotated
// generations ("<base>.gN") collapse onto their base so the whole
// rotation is checked as one unit.
func discoverPrefixes(fs *pfs.System) []string {
	seen := map[string]bool{}
	var out []string
	for _, name := range fs.List("") {
		if !strings.HasSuffix(name, ".meta") {
			continue
		}
		p := strings.TrimSuffix(name, ".meta")
		if strings.Contains(p, ".bad") {
			continue // quarantined: out of the committed namespace
		}
		if base, _, ok := ckpt.GenOf(p); ok {
			p = base
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// generations returns the committed generations reachable from one
// user-facing prefix: a plain (non-rotated) checkpoint is a single
// generation with no fallback behind it.
func generations(fs *pfs.System, prefix string) []string {
	if fs.Exists(prefix + ".meta") {
		return []string{prefix}
	}
	return ckpt.Rotation{Base: prefix}.Generations(fs)
}

// genTier classifies one generation's payload residency from its
// metadata: "pfs" (every byte in piece/segment files), "mem" (diskless
// — segment and every stored piece live only in peer memory), or
// "mixed" (a delta whose locations span tiers, e.g. a disk generation
// carrying memory-resident pieces forward by back-pointer).
func genTier(m *ckpt.Meta) string {
	mem, pfsN := 0, 0
	if m.SegWhere == ckpt.TierMem {
		mem++
	} else {
		pfsN++
	}
	for _, locs := range m.PieceLocs {
		for _, l := range locs {
			if l.Where == ckpt.TierMem {
				mem++
			} else {
				pfsN++
			}
		}
	}
	switch {
	case mem == 0:
		return "pfs"
	case pfsN == 0:
		return "mem"
	default:
		return "mixed"
	}
}

// listTiers prints each generation's storage-tier residency: the tier
// classification from its metadata, and — when a tier snapshot is
// loaded — the surviving replica counts of its memory-resident
// payloads. A memory-resident generation with no surviving replicas is
// flagged: it will fail the integrity check that follows.
func listTiers(fs *pfs.System, tier *ckpt.MemTier, prefix string) {
	for _, g := range generations(fs, prefix) {
		m, err := ckpt.ReadMeta(fs, g, 0)
		if err != nil {
			fmt.Printf("%-12s tier=?      meta unreadable: %v\n", g, err)
			continue
		}
		line := fmt.Sprintf("%-12s tier=%-5s", g, genTier(&m))
		ents := tier.Entries(g)
		if len(ents) > 0 {
			var bytes int64
			minRep := -1
			for _, e := range ents {
				bytes += e.Bytes
				if minRep < 0 || e.Replicas < minRep {
					minRep = e.Replicas
				}
			}
			line += fmt.Sprintf(" resident: %d payloads %.1fMB min-replicas=%d",
				len(ents), float64(bytes)/(1<<20), minRep)
			if minRep == 0 {
				line += "  REPLICAS LOST"
			}
		} else if genTier(&m) != "pfs" {
			line += " resident: NONE (memory-resident payloads have no surviving replica)"
		}
		fmt.Println(line)
	}
}

// checkPrefix verifies every committed generation reachable from one
// user-facing prefix and returns its classification. Memory-resident
// payloads verify against tier (nil: they fail, and the generation
// falls back like any other corruption). repair upgrades the legacy
// generations and quarantines the corrupt ones; *dirty is set when it
// changed anything. Without repair a legacy generation, or a state
// store's gob-era head, makes the prefix unrecoverable: it is intact,
// but nothing restarts from it until it is upgraded.
func checkPrefix(fs *pfs.System, tier *ckpt.MemTier, prefix string, repair bool, dirty *bool) int {
	gens := generations(fs, prefix)
	if len(gens) == 0 {
		fmt.Printf("%-12s UNRECOVERABLE: no committed generations\n", prefix)
		return exitUnrecoverable
	}

	good, gobGens, upgraded := 0, 0, false
	var corrupt []string
	for _, g := range gens {
		var err error
		if repair {
			var up bool
			if up, err = legacy.Upgrade(fs, g, 0); up {
				*dirty, upgraded = true, true
				fmt.Printf("%-12s upgraded to metadata version 4 over framed segments\n", g)
			}
		}
		var m ckpt.Meta
		if err == nil {
			m, err = ckpt.ReadMeta(fs, g, 0)
		}
		if err == nil {
			err = ckpt.VerifyTier(fs, tier, g, 0)
		}
		if errors.Is(err, ckpt.ErrLegacyFormat) {
			gobGens++
			fmt.Printf("%-12s LEGACY: %v\n", g, err)
			continue
		}
		if err != nil {
			corrupt = append(corrupt, g)
			fmt.Printf("%-12s CORRUPT: %v\n", g, err)
			continue
		}
		good++
		fmt.Printf("%-12s mode=%-5s tasks=%-3d arrays=%-2d state=%.1fMB  OK\n",
			g, m.Mode, m.Tasks, len(m.Arrays),
			float64(ckpt.StateBytes(fs, g))/(1<<20))
	}

	if gobGens > 0 {
		fmt.Printf("%-12s UNRECOVERABLE until upgraded: %d legacy generations (run with -repair)\n", prefix, gobGens)
		return exitUnrecoverable
	}
	if !repair && gens[0] != prefix && legacy.StoreIsLegacy(fs, prefix) {
		fmt.Printf("%-12s LEGACY: a coordinator state store whose head holds a gob image or gob records\n", prefix)
		fmt.Printf("%-12s UNRECOVERABLE until upgraded: the recovery supervisor refuses it (run with -repair)\n", prefix)
		return exitUnrecoverable
	}
	if good == 0 {
		fmt.Printf("%-12s UNRECOVERABLE: all %d generations corrupt\n", prefix, len(gens))
		return exitUnrecoverable
	}
	for _, g := range corrupt {
		if repair && g != prefix { // a bare prefix has nothing to fall back to
			moved := ckpt.Quarantine(fs, g)
			*dirty = *dirty || len(moved) > 0
			fmt.Printf("%-12s quarantined (%d files -> %s.bad.*)\n", g, len(moved), g)
		} else {
			fmt.Printf("%-12s fallback available (run with -repair to quarantine)\n", g)
		}
	}
	if repair && gens[0] != prefix {
		// A coordinator state store with a gob-era head: its table becomes
		// one framed anchor (a no-op for anything else).
		gen, quarantined, err := legacy.UpgradeStore(fs, prefix)
		for _, g := range quarantined {
			fmt.Printf("%-12s quarantined: its legacy state chain does not resolve\n", g)
		}
		if err != nil {
			fmt.Printf("%-12s UNRECOVERABLE: legacy state store does not upgrade: %v\n", prefix, err)
			return exitUnrecoverable
		}
		if gen >= 0 {
			fmt.Printf("%-12s state store upgraded: its legacy head's table committed as framed anchor %s.g%d\n", prefix, prefix, gen)
		}
		*dirty = *dirty || gen >= 0 || len(quarantined) > 0
		upgraded = upgraded || gen >= 0
	}
	if len(corrupt) == 0 && !upgraded {
		return exitClean
	}
	return exitRepaired
}
