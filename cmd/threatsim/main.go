// Command threatsim replays the RQ3 threat scenarios: CT monitor
// misleading (§6.1, Table 6), traffic obfuscation (§6.2), and browser
// user spoofing (Appendix F.1, Table 14).
//
// Usage:
//
//	threatsim [-scenario monitors|middlebox|browsers]
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/browser"
	"repro/internal/middlebox"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/x509cert"
)

func main() {
	scenario := flag.String("scenario", "", "monitors, middlebox, or browsers; empty = all")
	flag.Parse()

	run := func(name string) bool { return *scenario == "" || *scenario == name }

	if run("monitors") {
		forged := buildCert("victim.example\x00.attacker.site")
		results := monitor.MisleadExperiment(forged, "victim.example")
		fmt.Println(report.Table6(results))
		fmt.Println("Threat: a forged certificate whose indexed fields embed NUL evades the")
		fmt.Println("monitors marked concealed=yes when the owner queries their domain.")
		fmt.Println()
	}

	if run("middlebox") {
		fmt.Println("Traffic obfuscation (§6.2): blocklist rule CN=\"Evil Entity\"")
		rule := middlebox.Rule{Field: "CN", Value: "Evil Entity"}
		var rows [][]string
		for _, payload := range middlebox.ObfuscationPayloads("Evil Entity") {
			c := buildCert(payload)
			for _, res := range middlebox.Evasion(c, rule) {
				status := "caught"
				if res.Evaded {
					status = "EVADED"
				}
				rows = append(rows, []string{fmt.Sprintf("%q", payload), res.Engine.String(), status})
			}
		}
		fmt.Println(report.Table([]string{"Crafted CN", "Engine", "Outcome"}, rows))

		fmt.Println("Client SAN format checks (P2.2):")
		ulabel := buildCertSAN("b\xFCcher.example") // raw Latin-1 U-label
		var crows [][]string
		for _, cl := range middlebox.Clients() {
			err := middlebox.ValidateSANFormat(cl, ulabel)
			status := "accepts raw U-label (over-tolerant)"
			if err != nil {
				status = "rejects: " + err.Error()
			}
			crows = append(crows, []string{cl.String(), status})
		}
		fmt.Println(report.Table([]string{"Client", "Raw U-label SAN"}, crows))
	}

	if run("browsers") {
		fmt.Println("User spoofing (Appendix F.1):")
		findings := browser.SpoofExperiment("www.‮lapyap‬.com", "www.paypal.com")
		var rows [][]string
		for _, f := range findings {
			rows = append(rows, []string{f.Engine.String(), fmt.Sprintf("%q", f.Rendered), fmt.Sprintf("%v", f.Deceptive)})
		}
		fmt.Println(report.Table([]string{"Engine", "Rendered", "Deceptive"}, rows))

		fmt.Println("Warning pages (G1.3):")
		c := buildCertSAN("www.‮lapyap‬.com")
		var wrows [][]string
		for _, e := range browser.Engines() {
			wrows = append(wrows, []string{e.String(), browser.WarningPage(e, c)})
		}
		fmt.Println(report.Table([]string{"Engine", "Warning page"}, wrows))
	}
}

var (
	caKey, _   = x509cert.GenerateKey(901)
	leafKey, _ = x509cert.GenerateKey(902)
	serial     = int64(100)
)

func buildCert(cn string) *x509cert.Certificate {
	return build(cn, cn)
}

func buildCertSAN(san string) *x509cert.Certificate {
	return build(san, san)
}

func build(cn, san string) *x509cert.Certificate {
	serial++
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(serial),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Threat CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, cn)),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName(san)},
	}
	der, err := x509cert.Build(tpl, caKey, leafKey)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threatsim: %v\n", err)
		os.Exit(1)
	}
	c, err := x509cert.Parse(der)
	if err != nil {
		fmt.Fprintf(os.Stderr, "threatsim: %v\n", err)
		os.Exit(1)
	}
	return c
}
