// Flash join: the same specification synthesized for two different
// hierarchies — output on a flash drive versus output on a second hard
// disk — showing how OCAS adapts cost formulas and parameter choices to
// the device technology (Section 7.2's write-out experiments).
package main

import (
	_ "embed"
	"fmt"

	"ocas/examples"
)

//go:embed request.json
var request []byte

func main() {
	req := examples.Decode(request)
	fmt.Println("-- writing to a flash drive (erase-before-write, faster sequential writes) --")
	_, ssd, _ := examples.Run(req, examples.MaxRows)

	req.Hier, req.Output = "two-hdd", "hdd2"
	fmt.Println("-- writing to a second hard disk --")
	_, hdd, _ := examples.Run(req, examples.MaxRows)

	if ssd.Seconds < hdd.Seconds {
		fmt.Printf("OCAS estimates flash %.1fx faster: InitCom models erasure per 256K write block instead of seeks, and UnitTr is 4x cheaper.\n",
			hdd.Seconds/ssd.Seconds)
	}
}
