package ndp

import "dcsctrl/internal/fpga"

// Table III: per-instance Virtex-7 resource utilization and measured
// throughput of the open-source IP cores the paper synthesized.
var tableIII = map[string]fpga.Usage{
	"md5":    {LUTs: 8970 / 11, Registers: 4180 / 11, MaxClockMHz: 130, PowerW: 0.02},
	"sha1":   {LUTs: 10760 / 10, Registers: 6848 / 10, MaxClockMHz: 235, PowerW: 0.02},
	"sha256": {LUTs: 13090 / 13, Registers: 7480 / 13, MaxClockMHz: 130, PowerW: 0.02},
	"aes256": {LUTs: 10689, Registers: 6000, MaxClockMHz: 250, PowerW: 0.08},
	"crc32":  {LUTs: 93, Registers: 53, MaxClockMHz: 250, PowerW: 0.01},
	"gzip":   {LUTs: 16273, Registers: 12718, MaxClockMHz: 178, PowerW: 0.12},
}

// Note: the paper reports the MD5/SHA1/SHA256 rows as the *multi-
// instance* totals needed for 10 Gbps ("Resource utilization belongs
// to multiple instances of non-pipelined IP cores", Table III note 2);
// tableIII stores the per-instance share so NewBank reconstructs the
// same totals.

func usageFor(name string) fpga.Usage {
	u, ok := tableIII[name]
	if !ok {
		panic("ndp: no Table III entry for " + name)
	}
	u.Component = name
	return u
}

// MD5 is the data-integrity unit used by Swift (Table II).
type MD5 struct{}

// Name implements Unit.
func (MD5) Name() string { return "md5" }

// UnitThroughputBps implements Unit (Table III: 0.97 Gbps).
func (MD5) UnitThroughputBps() float64 { return 0.97e9 }

// PerUnitUsage implements Unit.
func (MD5) PerUnitUsage() fpga.Usage { return usageFor("md5") }

// SHA1 is a data-integrity unit.
type SHA1 struct{}

// Name implements Unit.
func (SHA1) Name() string { return "sha1" }

// UnitThroughputBps implements Unit (Table III: 1.10 Gbps).
func (SHA1) UnitThroughputBps() float64 { return 1.10e9 }

// PerUnitUsage implements Unit.
func (SHA1) PerUnitUsage() fpga.Usage { return usageFor("sha1") }

// SHA256 is a data-integrity unit.
type SHA256 struct{}

// Name implements Unit.
func (SHA256) Name() string { return "sha256" }

// UnitThroughputBps implements Unit (Table III: 0.80 Gbps).
func (SHA256) UnitThroughputBps() float64 { return 0.80e9 }

// PerUnitUsage implements Unit.
func (SHA256) PerUnitUsage() fpga.Usage { return usageFor("sha256") }

// CRC32 is the data-integrity unit used by HDFS (Table II).
type CRC32 struct{}

// Name implements Unit.
func (CRC32) Name() string { return "crc32" }

// UnitThroughputBps implements Unit (Table III: 10 Gbps).
func (CRC32) UnitThroughputBps() float64 { return 10e9 }

// PerUnitUsage implements Unit.
func (CRC32) PerUnitUsage() fpga.Usage { return usageFor("crc32") }

// AES256 encrypts or decrypts with AES-256-CTR (symmetric, so one
// unit type serves both directions, as the hardware core does).
type AES256 struct {
	Key [32]byte
	IV  [16]byte
}

// Name implements Unit.
func (*AES256) Name() string { return "aes256" }

// UnitThroughputBps implements Unit (Table III: 40.90 Gbps).
func (*AES256) UnitThroughputBps() float64 { return 40.90e9 }

// PerUnitUsage implements Unit.
func (*AES256) PerUnitUsage() fpga.Usage { return usageFor("aes256") }

// GZIP compresses (the HDFS/S3 path of Table II).
type GZIP struct{}

// Name implements Unit.
func (GZIP) Name() string { return "gzip" }

// UnitThroughputBps implements Unit (Table III: 100 Gbps).
func (GZIP) UnitThroughputBps() float64 { return 100e9 }

// PerUnitUsage implements Unit.
func (GZIP) PerUnitUsage() fpga.Usage { return usageFor("gzip") }

// GUNZIP decompresses; resource-wise it shares the gzip core.
type GUNZIP struct{}

// Name implements Unit.
func (GUNZIP) Name() string { return "gunzip" }

// UnitThroughputBps implements Unit.
func (GUNZIP) UnitThroughputBps() float64 { return 100e9 }

// PerUnitUsage implements Unit.
func (GUNZIP) PerUnitUsage() fpga.Usage {
	u := usageFor("gzip")
	u.Component = "gunzip"
	return u
}
