// Visit Day: the Rails case study driven through the *generated* typed
// ORM. The models package was emitted by `scooter gen` from the Visit Days
// corpus: struct shapes mirror the schema, so a schema migration that
// removes or retypes a field breaks this file at compile time — the "type
// errors for free" property of §2.2.
//
//	go run ./examples/visitday
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"scooter"
	"scooter/examples/visitday/models"
)

func main() {
	w := buildWorkspace()

	// Administrators bootstrap accounts; the Login principal is the
	// authentication middleware.
	login := w.AsPrinc(models.Login())
	anon := w.AsPrinc(models.Unauthenticated())

	adminID, err := models.Users(anon).Insert(models.UserData{
		Email: "chair@university.edu", PasswordDigest: "x", Admin: true,
		ResetToken: scooter.NoneOpt[string](), ResetSentAt: scooter.NoneOpt[int64](),
	})
	must(err)
	admin := w.AsPrinc(scooter.Instance("User", adminID))

	studentAcct, err := models.Users(anon).Insert(models.UserData{
		Email: "visitor@gmail.com", PasswordDigest: "y", Admin: false,
		ResetToken: scooter.NoneOpt[string](), ResetSentAt: scooter.NoneOpt[int64](),
	})
	must(err)

	studentID, err := models.Students(admin).Insert(models.StudentData{
		Account: studentAcct, Name: "Sam Visitor", Interests: "PL, systems",
		Visiting: true, Arrival: 1_552_600_000,
	})
	must(err)
	facultyID, err := models.Facultys(admin).Insert(models.FacultyData{
		Account: adminID, Name: "Prof. Example", Department: "CSE", Office: "EBU3B 4110",
	})
	must(err)
	_, err = models.Meetings(admin).Insert(models.MeetingData{
		Student: studentID, Faculty: facultyID,
		StartTime: 1_552_650_000, EndTime: 1_552_652_700, Location: "EBU3B 4110",
	})
	must(err)

	// The student sees their own schedule; meeting times are hidden from
	// other unprivileged users by policy, not by controller code.
	student := w.AsPrinc(scooter.Instance("User", studentAcct))
	meetings, err := models.Meetings(student).Find()
	must(err)
	fmt.Println("student's schedule:")
	for _, m := range meetings {
		if m.StartTime == nil {
			fmt.Printf("  meeting %v: time hidden\n", m.ID)
			continue
		}
		fmt.Printf("  meeting %v: %d - %d at %s\n", m.ID, *m.StartTime, *m.EndTime, deref(m.Location))
	}

	// The Login principal resets a password token; no one else can read it.
	must(models.Users(login).Update(studentAcct, models.UserPatch{
		ResetToken: ptr(scooter.SomeOpt("tok-123")),
	}))
	self, err := models.Users(login).ByID(studentAcct)
	must(err)
	fmt.Printf("login middleware sees resetToken present=%v\n", self.ResetToken.Present)
	other, err := models.Users(student).ByID(adminID)
	must(err)
	fmt.Printf("student sees admin's email: %v (nil means policy-stripped)\n", other.Email)
}

// buildWorkspace replays the Visit Days corpus migrations.
func buildWorkspace() *scooter.Workspace {
	w := scooter.NewWorkspace()
	dir := corpusDir()
	entries, err := os.ReadDir(dir)
	must(err)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		must(err)
		_, err = w.MigrateNamed(name, string(data))
		must(err)
	}
	return w
}

func corpusDir() string {
	for _, dir := range []string{
		"internal/casestudies/corpus/visitday",
		"../../internal/casestudies/corpus/visitday",
	} {
		if _, err := os.Stat(dir); err == nil {
			return dir
		}
	}
	log.Fatal("run from the repository root: go run ./examples/visitday")
	return ""
}

func deref(s *string) string {
	if s == nil {
		return "?"
	}
	return *s
}

func ptr[T any](v T) *T { return &v }

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
