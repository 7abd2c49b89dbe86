package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// envInfo records where a set of runs was made. It is gathered only for
// result files (-all); a single-workload run reads nothing outside its
// working directory.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	CPUModel   string `json:"cpu_model"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readEnv() envInfo {
	return envInfo{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    numClients(),
		CPUModel:   cpuModel(),
		DataDirFS:  fsType(os.TempDir()),
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sizesRecord flattens the frozen counts for the result file.
func sizesRecord(sz sizes) map[string]float64 {
	return map[string]float64{
		"setup_reps":     float64(sz.setupReps),
		"tpch_sf":        sz.tpchSF,
		"tpch_passes":    float64(sz.tpchPasses),
		"svc_tables":     svcTenants * svcTablesPerTenant,
		"svc_rows":       float64(sz.svcRows),
		"svc_distinct":   float64(sz.svcDistinct),
		"svc_batch_rows": float64(sz.svcBatch),
		"svc_read_ops":   float64(sz.svcReadOps * svcTenants),
		"svc_mixed_ops":  float64(sz.svcMixedOps * svcTenants),
		"svc_warm_ops":   float64(sz.svcWarmOps * svcTenants),
		"mr_columns":     float64(len(mrCorpora())),
		"mr_strings":     float64(sz.mrStrings),
		"mr_cycles":      float64(sz.mrCycles),
	}
}
