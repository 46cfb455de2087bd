;; A DPLL SAT solver: assignments are threaded, the branching heuristic is
;; dynamically bound, conflicts escape through exceptions, and the core
;; operations are contracted.

(define branch-order (make-parameter 'ascending))

(define clause/c (flat-contract 'clause? list?))

(define eval-clause
  (contract-wrap (-> clause/c any/c)
    (lambda (clause) (lambda (assignment)
      ;; 'true, 'false, or 'unknown under the partial assignment.
      (let loop ([lits clause] [unknown #f])
        (if (null? lits)
            (if unknown 'unknown 'false)
            (let* ([lit (car lits)]
                   [var (abs lit)]
                   [val (assv var assignment)])
              (cond
                [(not val) (loop (cdr lits) #t)]
                [(eq? (cdr val) (> lit 0)) 'true]
                [else (loop (cdr lits) unknown)]))))))
    'solver))

(define (all-assigned? clauses assignment)
  (let loop ([cs clauses])
    (cond [(null? cs) 'sat]
          [else
           (case ((eval-clause (car cs)) assignment)
             [(false) 'conflict]
             [(unknown) 'unknown]
             [else (loop (cdr cs))])])))

(define (pick-var nvars assignment)
  (let loop ([v (if (eq? (branch-order) 'ascending) 1 nvars)])
    (cond [(or (< v 1) (> v nvars)) #f]
          [(assv v assignment)
           (loop (if (eq? (branch-order) 'ascending) (+ v 1) (- v 1)))]
          [else v])))

(define (solve clauses nvars)
  (define (try assignment)
    (case (all-assigned? clauses assignment)
      [(sat) (throw (cons 'sat assignment))]
      [(conflict) #f]
      [else
       (let ([v (pick-var nvars assignment)])
         (if (not v)
             #f
             (begin
               (try (cons (cons v #t) assignment))
               (try (cons (cons v #f) assignment)))))]))
  (catch (lambda (result)
           (if (and (pair? result) (eq? (car result) 'sat))
               (length (cdr result))
               'unsat))
    (begin (try '()) 'unsat)))

;; A chain of xor-ish constraints (Gauss-style structure): x_i != x_{i+1}.
(define (make-instance nvars)
  (let loop ([i 1] [acc '()])
    (if (= i nvars)
        (cons (list i) acc)                ; Force the last variable true.
        (loop (+ i 1)
              (cons (list (- i) (- (+ i 1)))
                    (cons (list i (+ i 1)) acc))))))

(define (app-main n)
  (let loop ([i 0] [acc 0])
    (if (= i n)
        acc
        (let ([r (parameterize ([branch-order (if (even? i) 'ascending
                                                  'descending)])
                   (solve (make-instance 10) 10))])
          (loop (+ i 1) (+ acc (if (eq? r 'unsat) 0 r)))))))

;; Sized entry: app-main over chain instances of `nvars` variables, so an
;; op's cost can be matched to the other applications'.
(define (solve-chains n nvars)
  (let loop ([i 0] [acc 0])
    (if (= i n)
        acc
        (let ([r (parameterize ([branch-order (if (even? i) 'ascending
                                                  'descending)])
                   (solve (make-instance nvars) nvars))])
          (loop (+ i 1) (+ acc (if (eq? r 'unsat) 0 r)))))))
